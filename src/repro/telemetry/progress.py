"""Live progress streams: the third telemetry channel.

Spans answer "where did the time go" *after* a region finishes and
metrics accumulate totals; neither tells an operator how far a
ten-minute fault-grading job has got *right now*.  A progress stream
does: a named, monotone ``done / total`` cursor with free-form numeric
fields riding along (running coverage, faults dropped), published
through :meth:`Telemetry.progress()
<repro.telemetry.collector.Telemetry.progress>` and consumed two ways:

* **listeners** — in-process subscribers (the evaluation service
  forwards updates onto job documents and the ``/v1/events`` SSE
  stream);
* **sinks** — every update is also a flat ``progress`` event, so JSONL
  traces replay the stream.

Streams stay in the collector that advanced them: a child collector's
payload carries spans and metrics only.

The paper's own method motivates the shape of the stream: detection
quality is predicted and tracked *over test length* (PAPER.md §1.3),
not only inspected at the final verdict, so the natural progress unit
for grading work is "faults finalized so far" with the running coverage
as a field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = ["ProgressState", "ProgressStream", "progress_eta"]

def progress_eta(done: float, total: Optional[float],
                 elapsed: float) -> Optional[float]:
    """Remaining-seconds estimate from a linear rate, or ``None``.

    Undefined until work has both a total and a positive rate; the
    estimate is clamped at zero so completed streams never report a
    negative tail.
    """
    if not total or done <= 0 or elapsed <= 0:
        return None
    rate = done / elapsed
    return max(0.0, (total - done) / rate)


@dataclass
class ProgressState:
    """The latest snapshot of one named stream."""

    name: str
    done: float = 0.0
    total: Optional[float] = None
    started: float = field(default_factory=time.monotonic)
    updated_unix: float = 0.0
    elapsed_seconds: float = 0.0
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def fraction(self) -> Optional[float]:
        if not self.total:
            return None
        return min(1.0, self.done / self.total)

    @property
    def rate(self) -> Optional[float]:
        if self.done <= 0 or self.elapsed_seconds <= 0:
            return None
        return self.done / self.elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        return progress_eta(self.done, self.total, self.elapsed_seconds)

    def to_event(self) -> Dict[str, Any]:
        """The flat ``progress`` event emitted to sinks."""
        event: Dict[str, Any] = {
            "type": "progress",
            "name": self.name,
            "done": self.done,
            "total": self.total,
            "unix": self.updated_unix,
            "elapsed_seconds": self.elapsed_seconds,
        }
        event.update(self.fields)
        return event

    def to_doc(self) -> Dict[str, Any]:
        """The JSON document surfaced on service job snapshots."""
        doc: Dict[str, Any] = {"done": self.done, "total": self.total,
                               "updated_unix": self.updated_unix}
        if self.fraction is not None:
            doc["fraction"] = round(self.fraction, 6)
        if self.rate is not None:
            doc["rate"] = self.rate
        eta = self.eta_seconds
        if eta is not None:
            doc["eta_seconds"] = eta
        doc.update(self.fields)
        return doc


class ProgressStream:
    """Per-collector registry of named progress states.

    Owned by a :class:`~repro.telemetry.collector.Telemetry`; user code
    goes through ``tel.progress(name, done, total=...)`` rather than
    holding a stream directly.  Updates are monotone per name: ``done``
    only advances, annotation fields adopt the newest values.
    """

    def __init__(self) -> None:
        self._states: Dict[str, ProgressState] = {}
        self._listeners: list = []

    # ------------------------------------------------------------------
    def update(self, name: str, done: float,
               total: Optional[float] = None,
               **fields: Any) -> ProgressState:
        """Advance stream ``name`` to ``done`` (monotone) and publish."""
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = ProgressState(name=name)
        if total is not None:
            state.total = float(total)
        state.done = max(state.done, float(done))
        state.updated_unix = time.time()
        state.elapsed_seconds = max(0.0, time.monotonic() - state.started)
        for key, value in fields.items():
            if value is not None:
                state.fields[key] = value
        return state

    # ------------------------------------------------------------------
    def states(self) -> Dict[str, ProgressState]:
        return dict(self._states)

    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[ProgressState], None]
                  ) -> Callable[[], None]:
        """Register ``listener`` for every update; returns a remover."""
        self._listeners.append(listener)

        def _remove() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass
        return _remove

    def notify(self, state: ProgressState) -> None:
        for listener in list(self._listeners):
            listener(state)
