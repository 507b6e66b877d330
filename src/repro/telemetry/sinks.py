"""Pluggable telemetry sinks.

Every sink consumes the same flat event dicts (``span`` events as spans
finish, instrument snapshots at ``flush()``):

* :class:`InMemorySink` retains events for tests and in-process readers;
* :class:`JsonlSink` streams them as JSON Lines to a file
  (the ``--trace-out`` format);
* :class:`LoggingSummarySink` accumulates the session and, at flush,
  logs one human-readable summary through :mod:`logging` (the
  ``--profile`` stderr output).

New sinks subclass :class:`TelemetrySink` and override ``on_event``;
see ``docs/telemetry.md``.
"""

from __future__ import annotations

import json
import logging
from typing import Dict, List, Optional

from .metrics import Histogram
from .spans import Span, format_span_tree

__all__ = [
    "TelemetrySink",
    "InMemorySink",
    "JsonlSink",
    "LoggingSummarySink",
    "RequestLogSink",
    "reconstruct_spans",
    "summarize_metrics",
]

logger = logging.getLogger("repro.telemetry")


class TelemetrySink:
    """Base class: receives every telemetry event as a plain dict."""

    def on_event(self, event: Dict[str, object]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class InMemorySink(TelemetrySink):
    """Retains every event in order — the in-process collector."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def on_event(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def span_events(self) -> List[Dict[str, object]]:
        return [e for e in self.events if e["type"] == "span"]

    def metric_events(self) -> List[Dict[str, object]]:
        return [e for e in self.events if e["type"] != "span"]


def _json_default(obj):
    """Coerce numpy scalars (and anything else stringable) for json."""
    for attr in ("item",):
        if hasattr(obj, attr):
            return obj.item()
    return str(obj)


class JsonlSink(TelemetrySink):
    """Appends one JSON object per line to ``path`` (opened lazily)."""

    def __init__(self, path: str, mode: str = "w"):
        self.path = str(path)
        self.mode = mode
        self._fh = None

    def open(self) -> None:
        """Open the output file now rather than at the first event.

        Lets callers fail fast on an unwritable path before any
        simulation work has been spent.
        """
        if self._fh is None:
            self._fh = open(self.path, self.mode, encoding="utf-8")

    def on_event(self, event: Dict[str, object]) -> None:
        if self._fh is None:
            self.open()
        self._fh.write(json.dumps(event, default=_json_default) + "\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class RequestLogSink(JsonlSink):
    """JSON-lines request log: one record per served request.

    Consumes only the free-form ``request`` events emitted through
    :meth:`Telemetry.event("request", ...)
    <repro.telemetry.collector.Telemetry.event>` — everything else in
    the stream (spans, instrument snapshots) is ignored — and writes
    each as one JSON line.  The evaluation service uses it as the
    access log (``repro serve --access-log``); each record carries at
    least ``route``, ``method``, ``status``, ``latency_ms`` and, where
    the handler knows them, ``client``, ``trace_id``/``span_id`` (the
    serving request span, so a log line joins against Chrome-trace
    exports of the same run) and the ``job_id`` the route named or
    created.

    Opens in append mode by default so restarts extend the log.
    """

    EVENT_TYPE = "request"

    def __init__(self, path: str, mode: str = "a"):
        super().__init__(path, mode=mode)

    def on_event(self, event: Dict[str, object]) -> None:
        if event.get("type") == self.EVENT_TYPE:
            super().on_event(event)
            self.flush()  # access logs should be tail-able live


class LoggingSummarySink(TelemetrySink):
    """Logs a human-readable end-of-session summary via :mod:`logging`.

    Events accumulate until :meth:`flush`, which emits the span tree and
    metric summary as one INFO record on the ``repro.telemetry`` logger
    (stderr under the CLI's default logging configuration) and clears
    the buffer, so repeated flushes do not duplicate output.
    """

    def __init__(self, log: Optional[logging.Logger] = None,
                 level: int = logging.INFO):
        self._log = log or logger
        self._level = level
        self._events: List[Dict[str, object]] = []

    def on_event(self, event: Dict[str, object]) -> None:
        self._events.append(event)

    def flush(self) -> None:
        if not self._events:
            return
        parts = []
        roots = reconstruct_spans(self._events)
        if roots:
            parts.append("span tree:\n" + format_span_tree(roots))
        metrics = summarize_metrics(self._events)
        if metrics:
            parts.append("metrics:\n" + metrics)
        if parts:
            self._log.log(self._level, "telemetry summary\n%s",
                          "\n".join(parts))
        self._events = []


def reconstruct_spans(events: List[Dict[str, object]]) -> List[Span]:
    """Rebuild the span forest from flat span events (id / parent links).

    Span events are emitted when a span *ends*, i.e. children first;
    linking by id restores the tree, and start-time ordering restores
    the call order at each level.
    """
    spans: Dict[str, Span] = {}
    for e in events:
        if e["type"] != "span":
            continue
        sp = Span(name=str(e["name"]), sid=str(e["id"]),
                  parent_id=None if e["parent"] is None else str(e["parent"]),
                  trace_id=str(e.get("trace") or ""),
                  pid=int(e.get("pid") or 0),
                  attrs=dict(e.get("attrs") or {}),
                  start=float(e["start"]))
        sp.end = sp.start + float(e["duration"])
        err = e.get("error")
        sp.error = None if err is None else str(err)
        spans[sp.sid] = sp
    roots: List[Span] = []
    for sp in spans.values():
        parent = spans.get(sp.parent_id) if sp.parent_id is not None else None
        (parent.children if parent is not None else roots).append(sp)
    for sp in spans.values():
        sp.children.sort(key=lambda s: s.start)
    roots.sort(key=lambda s: s.start)
    return roots


def summarize_metrics(events: List[Dict[str, object]]) -> str:
    """Aligned text block for counter/gauge/histogram snapshot events."""
    lines: List[str] = []
    scalars = [e for e in events if e["type"] in ("counter", "gauge")]
    if scalars:
        width = max(len(str(e["name"])) for e in scalars) + 2
        for e in sorted(scalars, key=lambda e: str(e["name"])):
            value = e["value"]
            if isinstance(value, float):
                value = f"{value:,.3f}".rstrip("0").rstrip(".")
            lines.append(f"  {str(e['name']):<{width}}{value}")
    for e in sorted((e for e in events if e["type"] == "histogram"),
                    key=lambda e: str(e["name"])):
        if not e["count"]:
            continue
        mean = e["sum"] / e["count"]
        quantiles = "".join(f" {key}={e[key]:.4g}"
                            for key in ("p50", "p90", "p99") if key in e)
        lines.append(f"  {e['name']}: n={e['count']} mean={mean:.4g} "
                     f"min={e['min']:.4g} max={e['max']:.4g}{quantiles}")
        hist = Histogram(str(e["name"]), edges=e["edges"])
        buckets = [f"{hist.bucket_label(i)}:{c}"
                   for i, c in enumerate(e["counts"]) if c]
        lines.append("    " + "  ".join(buckets))
    return "\n".join(lines)
