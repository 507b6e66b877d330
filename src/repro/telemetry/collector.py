"""The telemetry collector and the process-wide current collector.

Design goals, in order:

1. **Zero cost when disabled.**  The default current collector is a
   shared :class:`NullTelemetry` whose ``span()`` returns one reusable
   no-op context manager and whose instrument getters return one shared
   no-op instrument — instrumented hot paths pay a dict-free method call
   and nothing else.  Code that would do per-element work to *feed*
   telemetry must guard it with ``if tel.enabled:``.
2. **One collector, many sinks.**  The active :class:`Telemetry` keeps
   the span forest and instruments in memory (for in-process rendering)
   and forwards flat events to its sinks (JSONL file, logging summary,
   test collectors).

Usage::

    from repro.telemetry import get_telemetry, telemetry_session

    with telemetry_session() as tel:        # enable for a region
        run_fault_coverage(...)
        print(tel.render())

    # inside library code
    tel = get_telemetry()
    with tel.span("faultsim.track", vectors=n):
        ...
    tel.counter("faultsim.vectors").add(n)
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import logging
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import TelemetryError
from .metrics import NULL_INSTRUMENT, Counter, Gauge, Histogram
from .progress import ProgressState, ProgressStream
from .sinks import TelemetrySink, reconstruct_spans, summarize_metrics
from .spans import Span, format_span_tree, new_trace_id

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "traced",
    "use_telemetry",
]

logger = logging.getLogger("repro.telemetry")


class Telemetry:
    """An enabled collector: hierarchical spans + typed metrics + sinks.

    The active-span stack lives in a :class:`~contextvars.ContextVar`,
    so spans opened on different asyncio tasks or executor threads nest
    correctly within their own context instead of interleaving on one
    shared stack.  Every collector carries a ``trace_id`` (inherited by
    child collectors spawned for worker processes) and hands out string
    span ids that stay unique across processes.
    """

    enabled = True

    def __init__(self, sinks: Optional[Iterable[TelemetrySink]] = None, *,
                 trace_id: Optional[str] = None,
                 parent_span_id: Optional[str] = None):
        self.sinks: List[TelemetrySink] = list(sinks or ())
        self.roots: List[Span] = []
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.parent_span_id = parent_span_id
        self.progress_streams = ProgressStream()
        self._metrics: Dict[str, object] = {}
        self._sid_prefix = os.urandom(4).hex()
        self._sid = itertools.count(1)
        self._spans_by_id: Dict[str, Span] = {}
        self._stack_var: "contextvars.ContextVar[Tuple[Span, ...]]" = \
            contextvars.ContextVar("repro_telemetry_stack", default=())

    def _next_sid(self) -> str:
        return f"{self._sid_prefix}-{next(self._sid):x}"

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time a region; nests under the innermost open span."""
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        sp = Span(name=name, sid=self._next_sid(),
                  parent_id=self.parent_span_id if parent is None
                  else parent.sid,
                  trace_id=self.trace_id, pid=os.getpid(),
                  attrs=attrs)
        self._spans_by_id[sp.sid] = sp
        token = self._stack_var.set(stack + (sp,))
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack_var.reset(token)
            (self.roots if parent is None else parent.children).append(sp)
            self._emit(sp.to_event())

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def find_span(self, span_id: str) -> Optional[Span]:
        """The (open or finished) span with this id, if this collector
        created or absorbed it."""
        return self._spans_by_id.get(span_id)

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def absorb(self, payload: Optional[Dict[str, object]]) -> None:
        """Merge a child collector's shipped payload into this one.

        ``payload`` is what :func:`repro.telemetry.propagate.child_collector`
        captured in a worker: finished span events plus instrument
        snapshots.  Spans are re-emitted to this collector's sinks and
        grafted into the live tree under the span named by their
        ``parent`` id (the dispatching span); metric snapshots merge
        into this collector's instruments (counters add, gauges adopt
        the child's last value, histograms merge bucket-wise).
        """
        if not payload:
            return
        span_events = list(payload.get("spans") or ())
        for event in span_events:
            self._emit(event)
        for root in reconstruct_spans(span_events):
            self._graft(root)
        for event in payload.get("metrics") or ():
            try:
                self._merge_metric(event)
            except TelemetryError as exc:
                logger.warning("dropping unmergeable child metric %r: %s",
                               event.get("name"), exc)

    def _graft(self, root: Span) -> None:
        stack = [root]
        while stack:
            sp = stack.pop()
            self._spans_by_id[sp.sid] = sp
            stack.extend(sp.children)
        parent = None if root.parent_id is None \
            else self._spans_by_id.get(root.parent_id)
        if parent is not None and parent is not root:
            parent.children.append(root)
        else:
            self.roots.append(root)

    def _merge_metric(self, event: Dict[str, object]) -> None:
        kind = event.get("type")
        name = str(event.get("name"))
        if kind == "counter":
            self.counter(name).add(event.get("value") or 0)
        elif kind == "gauge":
            if event.get("value") is not None:
                self.gauge(name).set(event["value"])
        elif kind == "histogram":
            self.histogram(name, edges=event.get("edges")).merge_event(event)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _instrument(self, name: str, cls, *args):
        inst = self._metrics.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._metrics[name] = inst
        elif not isinstance(inst, cls):
            raise TelemetryError(
                f"metric {name!r} is already registered as a {inst.kind}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str,
                  edges: Optional[Sequence[float]] = None) -> Histogram:
        if name in self._metrics:
            return self._instrument(name, Histogram)
        return self._instrument(name, Histogram, edges)

    def metrics(self) -> Dict[str, object]:
        """Snapshot view of all instruments by name."""
        return dict(self._metrics)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def progress(self, name: str, done, total=None,
                 **fields) -> ProgressState:
        """Advance the named progress stream and publish the update.

        ``done`` is monotone per stream (stale updates are no-ops);
        ``total`` and any extra numeric fields (running coverage,
        dropped counts, ...) ride along.  Each update is emitted to the
        sinks as a flat ``progress`` event and pushed to in-process
        subscribers (see :meth:`on_progress`).  Streams stay in this
        collector: a child collector's payload carries none.
        """
        state = self.progress_streams.update(name, done, total, **fields)
        self.counter("telemetry.progress_updates").add(1)
        self._emit(state.to_event())
        self.progress_streams.notify(state)
        return state

    def on_progress(self, listener) -> "Callable[[], None]":
        """Subscribe to every progress update; returns a remover."""
        return self.progress_streams.subscribe(listener)

    # ------------------------------------------------------------------
    # Sinks and rendering
    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.on_event(event)

    def event(self, kind: str, **fields) -> None:
        """Emit a free-form event straight to the sinks.

        For event families that are neither spans nor instruments —
        e.g. the evaluation service's per-request ``request`` records
        consumed by :class:`~repro.telemetry.sinks.RequestLogSink`.
        ``kind`` becomes the event's ``type`` field; sinks that do not
        recognize it simply pass it through.
        """
        e: Dict[str, object] = {"type": kind}
        e.update(fields)
        self._emit(e)

    def flush(self) -> None:
        """Push instrument snapshots to the sinks and flush them.

        Call once at session end (``telemetry_session`` does); flushing
        mid-run would duplicate metric snapshots in streaming sinks.
        """
        for inst in self._metrics.values():
            self._emit(inst.to_event())
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def render(self, include_metrics: bool = True) -> str:
        """Human-readable span tree (+ metric summary) of the session."""
        parts = [format_span_tree(self.roots)]
        if include_metrics and self._metrics:
            summary = summarize_metrics(
                [inst.to_event() for inst in self._metrics.values()])
            if summary:
                parts.append("metrics:")
                parts.append(summary)
        return "\n".join(parts)


class _NullSpan:
    """Reusable no-op context manager standing in for a Span."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, object] = {}
    children: tuple = ()
    error = None
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled collector: every operation is a near-free no-op."""

    enabled = False
    __slots__ = ()
    roots: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current_span(self) -> None:
        return None

    def counter(self, name: str):
        return NULL_INSTRUMENT

    def gauge(self, name: str):
        return NULL_INSTRUMENT

    def histogram(self, name: str, edges=None):
        return NULL_INSTRUMENT

    def metrics(self) -> Dict[str, object]:
        return {}

    def progress(self, name: str, done, total=None, **fields) -> None:
        return None

    def on_progress(self, listener):
        return lambda: None

    def absorb(self, payload: Optional[Dict[str, object]]) -> None:
        pass

    def event(self, kind: str, **fields) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def render(self, include_metrics: bool = True) -> str:
        return "(telemetry disabled)"


NULL_TELEMETRY = NullTelemetry()

_current: Union[Telemetry, NullTelemetry] = NULL_TELEMETRY

#: Context-local override of the process-wide collector.  Worker
#: threads and child-collector sessions install through this so the
#: override is scoped to their own context instead of the whole process.
_override: "contextvars.ContextVar[Optional[Union[Telemetry, NullTelemetry]]]" = \
    contextvars.ContextVar("repro_telemetry_override", default=None)


def get_telemetry() -> Union[Telemetry, NullTelemetry]:
    """The current collector: a context-local override if one is
    installed (see :func:`use_telemetry`), else the process-wide one
    (the no-op collector by default)."""
    override = _override.get()
    return _current if override is None else override


def set_telemetry(
    tel: Optional[Union[Telemetry, NullTelemetry]]
) -> Union[Telemetry, NullTelemetry]:
    """Install ``tel`` (or the null collector for ``None``) process-wide;
    returns the previously installed collector so callers can restore
    it."""
    global _current
    previous = _current
    _current = NULL_TELEMETRY if tel is None else tel
    return previous


@contextlib.contextmanager
def use_telemetry(tel: Union[Telemetry, NullTelemetry]):
    """Make ``tel`` the current collector for this context only.

    Unlike :func:`set_telemetry`, the override is scoped to the calling
    context (thread / asyncio task), so concurrent workers can each run
    under their own child collector without fighting over the global.
    """
    token = _override.set(tel)
    try:
        yield tel
    finally:
        _override.reset(token)


@contextlib.contextmanager
def telemetry_session(sinks: Optional[Iterable[TelemetrySink]] = None,
                      tel: Optional[Telemetry] = None):
    """Enable telemetry for a region, restoring the previous collector.

    Yields the active :class:`Telemetry`; on exit the collector is
    flushed and its sinks closed.
    """
    active = tel if tel is not None else Telemetry(sinks=sinks)
    previous = set_telemetry(active)
    try:
        yield active
    finally:
        set_telemetry(previous)
        active.flush()
        active.close()


def traced(name: str, **attrs):
    """Decorator running the wrapped callable inside a named span."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_telemetry().span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
