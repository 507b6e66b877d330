"""Cross-process trace propagation.

A :class:`TraceContext` is the tiny, picklable handle a dispatching
process injects into work it ships elsewhere — a pool chunk, a service
job — naming the trace and the span the remote work belongs under.  The
remote side runs its chunk inside :func:`child_collector`, a lightweight
:class:`~repro.telemetry.collector.Telemetry` scoped to that chunk, and
ships the finished spans plus metric deltas back as one payload dict.
The parent merges the payload with
:meth:`Telemetry.absorb() <repro.telemetry.collector.Telemetry.absorb>`,
re-parenting the worker spans under the dispatching span — one tree,
end to end, no matter how many processes the work crossed.

Span ``start`` times are :func:`time.perf_counter` readings; on Linux
that is ``CLOCK_MONOTONIC``, which is system-wide, so parent and worker
timestamps share a timeline on one machine (the only place a process
pool runs).

Usage, parent side::

    ctx = TraceContext.current()          # None when telemetry is off
    ...ship (fn, chunk, ctx) to the worker...
    tel.absorb(payload)                   # merge what came back

worker side::

    with child_collector(ctx) as child:
        out = [fn(item) for item in chunk]
    return out, child.payload             # None when ctx was None
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Optional

from .collector import Telemetry, get_telemetry, use_telemetry
from .sinks import InMemorySink

__all__ = ["TraceContext", "child_collector", "collector_payload"]


@dataclass(frozen=True)
class TraceContext:
    """Serializable pointer to "where this work hangs in the trace"."""

    trace_id: str
    span_id: Optional[str] = None

    @classmethod
    def current(cls) -> Optional["TraceContext"]:
        """The context of the innermost open span of the current
        collector, or ``None`` when telemetry is disabled."""
        tel = get_telemetry()
        if not tel.enabled:
            return None
        span = tel.current_span
        return cls(trace_id=tel.trace_id,
                   span_id=None if span is None else span.sid)


def collector_payload(tel: Telemetry,
                      span_events: Optional[list] = None) -> Dict[str, object]:
    """A collector's finished work as one merge-ready payload dict: its
    ``spans``, its ``metrics`` and the ``pid`` that recorded them.

    ``span_events`` overrides the span-event list (e.g. an
    :class:`~repro.telemetry.sinks.InMemorySink`'s buffer, which has
    them already flat); by default the finished span forest is walked.
    """
    if span_events is None:
        span_events = []
        stack = list(tel.roots)
        while stack:
            span = stack.pop()
            span_events.append(span.to_event())
            stack.extend(span.children)
    return {
        "spans": list(span_events),
        "metrics": [inst.to_event() for inst in tel.metrics().values()],
        "pid": os.getpid(),
    }


class _ChildHandle:
    """What :func:`child_collector` yields; ``payload`` fills at exit."""

    __slots__ = ("payload",)

    def __init__(self) -> None:
        self.payload: Optional[Dict[str, object]] = None


@contextlib.contextmanager
def child_collector(ctx: Optional[TraceContext], *, on_progress=None):
    """Run a region under a per-chunk child collector.

    With ``ctx=None`` (telemetry disabled in the dispatching process)
    this is a no-op passthrough and the handle's ``payload`` stays
    ``None`` — the zero-cost discipline extends across processes.
    Otherwise a fresh :class:`Telemetry` joins ``ctx``'s trace, becomes
    the context-local current collector for the region, and the handle's
    ``payload`` holds the merge-ready spans and metric deltas on exit.

    ``on_progress`` subscribes to the child's live progress updates for
    the duration of the region: this is how the evaluation service's
    executor threads put a running job's progress on its job document.
    Progress never rides in the payload, and with ``ctx=None`` there is
    no collector to observe.
    """
    handle = _ChildHandle()
    if ctx is None:
        yield handle
        return
    sink = InMemorySink()
    child = Telemetry(sinks=[sink], trace_id=ctx.trace_id,
                      parent_span_id=ctx.span_id)
    if on_progress is not None:
        child.on_progress(on_progress)
    with use_telemetry(child):
        try:
            yield handle
        finally:
            handle.payload = collector_payload(
                child, span_events=sink.span_events())
