"""Fleet health plane: worker heartbeats merged into one live view.

The cluster layer grades one fault universe across many worker
processes, but until now their health was only visible *after* a sweep
(traces grafted at merge time, ledger records on finish).  This module
is the live counterpart: every worker periodically emits a
**heartbeat** — its instrument snapshots, progress cursors, queue
depth, inflight jobs, pid/host — and a :class:`FleetView` on the
aggregation side merges the stream into one fleet-level document.

The merge reuses the established cross-process discipline
(:meth:`Telemetry.absorb <repro.telemetry.collector.Telemetry.absorb>`):

* progress cursors are **max-merged** per worker — a worker that
  restarts mid-stream and re-reports ``done=100`` after ``done=500``
  never rewinds the fleet's cursor;
* instrument snapshots are cumulative per worker, so the *latest
  snapshot supersedes* earlier ones, and per-second **rates** come from
  deltas between consecutive beats (reset on restart so a rebooted
  counter never yields a negative rate);
* aggregation across workers sums counters/rates/gauges and merges
  histograms bucket-wise (:meth:`Histogram.merge_event
  <repro.telemetry.metrics.Histogram.merge_event>`), skipping workers
  whose bucket edges disagree rather than poisoning the fleet view.

Liveness is push-implied: a worker that stops beating transitions
``live -> suspect -> dead`` after ``suspect_misses`` / ``dead_misses``
missed intervals.  State transitions are returned to the caller as
``fleet.*`` events so the service can publish them over SSE.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TelemetryError
from .export import prometheus_name
from .metrics import Histogram

__all__ = ["HEARTBEAT_SCHEMA", "FLEET_SCHEMA", "WORKER_STATES",
           "build_heartbeat", "FleetView", "WorkerHealth"]

HEARTBEAT_SCHEMA = "repro-heartbeat/1"
FLEET_SCHEMA = "repro-fleet/1"

#: Liveness states in order of decay.
WORKER_STATES = ("live", "suspect", "dead")

#: Progress streams whose instantaneous rate counts as fault-grading
#: throughput (the ``faults/s`` column in ``repro top``).
FAULT_STREAMS_SUFFIX = ".grade"


def build_heartbeat(tel, *, worker: str, seq: int, interval: float,
                    queue_depth: Optional[int] = None,
                    inflight: Optional[List[str]] = None,
                    started_unix: Optional[float] = None,
                    extra: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """One worker's beat: telemetry snapshots plus operational state.

    ``tel`` may be any collector (including a disabled one, in which
    case the metric and progress sections are empty) — a heartbeat is
    an operational signal first and a metrics carrier second.
    """
    metrics: List[Dict[str, Any]] = []
    progress: List[Dict[str, Any]] = []
    if getattr(tel, "enabled", False):
        metrics = [inst.to_event() for inst in tel.metrics().values()]
        progress = tel.progress_streams.events()
    beat: Dict[str, Any] = {
        "schema": HEARTBEAT_SCHEMA,
        "worker": str(worker),
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "seq": int(seq),
        "interval": float(interval),
        "unix": time.time(),
        "metrics": metrics,
        "progress": progress,
    }
    if queue_depth is not None:
        beat["queue_depth"] = int(queue_depth)
    if inflight is not None:
        beat["inflight"] = list(inflight)
    if started_unix is not None:
        beat["started_unix"] = float(started_unix)
    if extra:
        beat["extra"] = dict(extra)
    return beat


@dataclass
class WorkerHealth:
    """Everything the fleet knows about one worker."""

    worker: str
    pid: int = 0
    host: str = ""
    state: str = "live"
    first_seen: float = 0.0
    last_seen: float = 0.0
    seq: int = 0
    interval: float = 2.0
    beats: int = 0
    restarts: int = 0
    queue_depth: Optional[int] = None
    inflight: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Latest instrument snapshot per metric name.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Max-merged progress cursor per stream name.
    progress: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Instantaneous per-second rates (counters and progress cursors),
    #: from deltas between the last two beats.
    rates: Dict[str, float] = field(default_factory=dict)
    # Baseline for rate computation: (unix, {name: value}).
    _prev: Optional[Tuple[float, Dict[str, float]]] = field(
        default=None, repr=False)

    @property
    def faults_per_sec(self) -> float:
        """Grading throughput: summed rates of ``*.grade`` cursors."""
        return sum(rate for name, rate in self.rates.items()
                   if name.endswith(FAULT_STREAMS_SUFFIX))

    def missed_beats(self, now: float) -> float:
        """How many heartbeat intervals have elapsed since the last."""
        if self.last_seen <= 0 or self.interval <= 0:
            return 0.0
        return max(0.0, (now - self.last_seen) / self.interval)

    def to_doc(self, now: Optional[float] = None) -> Dict[str, Any]:
        now = time.time() if now is None else now
        doc: Dict[str, Any] = {
            "worker": self.worker,
            "pid": self.pid,
            "host": self.host,
            "state": self.state,
            "first_seen_unix": self.first_seen,
            "last_seen_unix": self.last_seen,
            "age_seconds": max(0.0, now - self.last_seen),
            "missed_beats": round(self.missed_beats(now), 2),
            "seq": self.seq,
            "interval": self.interval,
            "beats": self.beats,
            "restarts": self.restarts,
            "faults_per_sec": self.faults_per_sec,
            "rates": dict(self.rates),
            "progress": {name: dict(cursor)
                         for name, cursor in self.progress.items()},
        }
        if self.queue_depth is not None:
            doc["queue_depth"] = self.queue_depth
        if self.inflight:
            doc["inflight"] = list(self.inflight)
        if self.extra:
            doc["extra"] = dict(self.extra)
        return doc


def _scalar_values(events: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Counter name -> value map from a worker's metric snapshots."""
    out: Dict[str, float] = {}
    for name, event in events.items():
        if event.get("type") == "counter" \
                and isinstance(event.get("value"), (int, float)):
            out[name] = float(event["value"])
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


class FleetView:
    """Delta-merges worker heartbeats into one live fleet document.

    Not thread-safe by itself; the evaluation service calls it only
    from the event loop.
    """

    def __init__(self, *, suspect_misses: float = 1.5,
                 dead_misses: float = 2.0,
                 default_interval: float = 2.0):
        if not 0 < suspect_misses <= dead_misses:
            raise TelemetryError(
                f"need 0 < suspect_misses <= dead_misses, got "
                f"{suspect_misses} / {dead_misses}")
        self.suspect_misses = float(suspect_misses)
        self.dead_misses = float(dead_misses)
        self.default_interval = float(default_interval)
        self.workers: Dict[str, WorkerHealth] = {}
        self.beats = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe(self, beat: Dict[str, Any],
                now: Optional[float] = None
                ) -> List[Tuple[str, Dict[str, Any]]]:
        """Fold one heartbeat in; returns ``fleet.*`` events to publish.

        Always yields a ``fleet.heartbeat`` summary; adds a
        ``fleet.worker`` transition event when the beat changed the
        worker's liveness state (e.g. a suspect worker came back).
        """
        if not isinstance(beat, dict) or "worker" not in beat:
            raise TelemetryError("heartbeat must be an object with "
                                 "a 'worker' field")
        schema = beat.get("schema", HEARTBEAT_SCHEMA)
        if schema != HEARTBEAT_SCHEMA:
            raise TelemetryError(
                f"unknown heartbeat schema {schema!r}; expected "
                f"{HEARTBEAT_SCHEMA}")
        now = time.time() if now is None else now
        name = str(beat["worker"])
        health = self.workers.get(name)
        if health is None:
            health = self.workers[name] = WorkerHealth(
                worker=name, first_seen=now,
                interval=self.default_interval)
        previous_state = health.state

        pid = int(beat.get("pid") or 0)
        seq = int(beat.get("seq") or 0)
        restarted = health.beats > 0 and (
            (pid and health.pid and pid != health.pid)
            or seq < health.seq)
        if restarted:
            # A rebooted worker's counters start from zero: drop the
            # rate baseline so deltas cannot go negative.  Progress
            # cursors are NOT reset — max-merge below keeps them
            # monotone across the restart.
            health.restarts += 1
            health._prev = None
            health.metrics = {}

        health.pid = pid or health.pid
        health.host = str(beat.get("host") or health.host)
        health.seq = seq
        health.last_seen = float(beat.get("unix") or now)
        # Never trust a clock skewed into the future for liveness.
        health.last_seen = min(health.last_seen, now)
        health.interval = float(beat.get("interval")
                                or health.interval
                                or self.default_interval)
        health.beats += 1
        if "queue_depth" in beat:
            health.queue_depth = int(beat["queue_depth"])
        if "inflight" in beat:
            health.inflight = [str(x) for x in beat["inflight"]]
        if isinstance(beat.get("extra"), dict):
            health.extra.update(beat["extra"])

        # Latest-snapshot-supersedes metric merge, with rates from the
        # delta against the previous beat.
        prev_values = dict(health._prev[1]) if health._prev else {}
        prev_unix = health._prev[0] if health._prev else None
        for event in beat.get("metrics") or []:
            if isinstance(event, dict) and "name" in event:
                health.metrics[str(event["name"])] = dict(event)
        cur_values = _scalar_values(health.metrics)
        if prev_unix is not None and health.last_seen > prev_unix:
            dt = health.last_seen - prev_unix
            for mname, value in cur_values.items():
                delta = value - prev_values.get(mname, 0.0)
                health.rates[f"{mname}.rate"] = max(0.0, delta) / dt

        # Progress cursors: max-merge, worker-restart safe.
        for event in beat.get("progress") or []:
            if not isinstance(event, dict) or "name" not in event:
                continue
            sname = str(event["name"])
            cursor = health.progress.get(sname)
            done = float(event.get("done") or 0.0)
            if cursor is None:
                cursor = health.progress[sname] = {"done": 0.0}
            prev_done = float(cursor.get("done") or 0.0)
            merged = dict(event)
            merged.pop("type", None)
            merged["done"] = max(prev_done, done)
            cursor.update(merged)
            if prev_unix is not None and health.last_seen > prev_unix:
                dt = health.last_seen - prev_unix
                delta = max(0.0, cursor["done"]
                            - prev_values.get(f"progress:{sname}", 0.0))
                health.rates[sname] = delta / dt
        cur_values.update({
            f"progress:{sname}": float(cursor.get("done") or 0.0)
            for sname, cursor in health.progress.items()})
        health._prev = (health.last_seen, cur_values)

        self.beats += 1
        events: List[Tuple[str, Dict[str, Any]]] = []
        if previous_state != "live" and health.beats > 1:
            health.state = "live"
            events.append(("fleet.worker", {
                "worker": name, "state": "live",
                "previous": previous_state, "reason": "heartbeat"}))
        else:
            health.state = "live"
        events.append(("fleet.heartbeat", {
            "worker": name, "seq": health.seq, "pid": health.pid,
            "state": health.state,
            "faults_per_sec": health.faults_per_sec,
            "queue_depth": health.queue_depth,
            "restarts": health.restarts}))
        return events

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def sweep(self, now: Optional[float] = None
              ) -> List[Tuple[str, Dict[str, Any]]]:
        """Decay workers that stopped beating; returns transitions."""
        now = time.time() if now is None else now
        events: List[Tuple[str, Dict[str, Any]]] = []
        for health in self.workers.values():
            missed = health.missed_beats(now)
            if missed >= self.dead_misses:
                target = "dead"
            elif missed >= self.suspect_misses:
                target = "suspect"
            else:
                target = "live"
            if target != health.state \
                    and WORKER_STATES.index(target) \
                    > WORKER_STATES.index(health.state):
                previous = health.state
                health.state = target
                events.append(("fleet.worker", {
                    "worker": health.worker, "state": target,
                    "previous": previous,
                    "missed_beats": round(missed, 2),
                    "reason": "missed heartbeats"}))
        return events

    def worker_state(self, worker: str) -> Optional[str]:
        health = self.workers.get(worker)
        return None if health is None else health.state

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in WORKER_STATES}
        for health in self.workers.values():
            out[health.state] = out.get(health.state, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merged_values(self) -> Dict[str, float]:
        """Flat metric map the alert engine evaluates rules against.

        Counters and gauges sum across workers under their own names;
        per-worker rates sum under ``<name>.rate`` (counters) or the
        stream name (progress); histograms merge bucket-wise and
        surface ``<name>.p50/.p90/.p99/.count/.mean``.  Fleet-level
        aggregates live under ``fleet.*``.
        """
        values: Dict[str, float] = {}
        merged_hists: Dict[str, Histogram] = {}
        for health in self.workers.values():
            for name, event in health.metrics.items():
                etype = event.get("type")
                if etype in ("counter", "gauge"):
                    value = event.get("value")
                    if isinstance(value, (int, float)):
                        values[name] = values.get(name, 0.0) + float(value)
                elif etype == "histogram":
                    hist = merged_hists.get(name)
                    try:
                        if hist is None:
                            hist = merged_hists[name] = Histogram(
                                name, edges=event["edges"])
                        hist.merge_event(event)
                    except (TelemetryError, KeyError, ValueError):
                        continue  # incompatible edges: skip this worker
            for name, rate in health.rates.items():
                values[name] = values.get(name, 0.0) + rate
        for name, hist in merged_hists.items():
            values[f"{name}.count"] = float(hist.count)
            if hist.count:
                values[f"{name}.mean"] = hist.mean
                for key, est in hist.summary().items():
                    values[f"{name}.{key}"] = est
        counts = self.counts()
        values["fleet.workers"] = float(len(self.workers))
        for state in WORKER_STATES:
            values[f"fleet.workers.{state}"] = float(counts[state])
        values["fleet.faults_per_sec"] = sum(
            h.faults_per_sec for h in self.workers.values()
            if h.state != "dead")
        values["fleet.queue_depth"] = float(sum(
            h.queue_depth or 0 for h in self.workers.values()
            if h.state != "dead"))
        values["fleet.restarts"] = float(sum(
            h.restarts for h in self.workers.values()))
        return values

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The ``GET /v1/fleet`` document (``repro-fleet/1``).

        ``values`` is :meth:`merged_values`, so ``repro alerts check``
        on this document evaluates what the serve-side engine does.
        """
        now = time.time() if now is None else now
        counts = self.counts()
        workers = [self.workers[name].to_doc(now)
                   for name in sorted(self.workers)]
        return {
            "schema": FLEET_SCHEMA,
            "generated_unix": now,
            "beats": self.beats,
            "workers": workers,
            "totals": {
                "workers": len(workers),
                "live": counts["live"],
                "suspect": counts["suspect"],
                "dead": counts["dead"],
                "faults_per_sec": sum(w["faults_per_sec"]
                                      for w in workers
                                      if w["state"] != "dead"),
                "queue_depth": sum(w.get("queue_depth") or 0
                                   for w in workers
                                   if w["state"] != "dead"),
                "inflight": sum(len(w.get("inflight") or ())
                                for w in workers
                                if w["state"] != "dead"),
            },
            "values": self.merged_values(),
        }

    # ------------------------------------------------------------------
    # Prometheus
    # ------------------------------------------------------------------
    def prometheus(self, prefix: str = "repro",
                   now: Optional[float] = None) -> str:
        """Per-worker-labelled text exposition of the fleet view.

        :func:`~repro.telemetry.export.prometheus_exposition` renders
        one collector's instruments; the fleet needs the same metric
        name carrying a ``worker=...`` label per source, which this
        renders directly (counters as ``_total``, gauges verbatim,
        histogram count/sum plus quantile estimates — full per-worker
        bucket series would multiply scrape size for little insight).
        """
        now = time.time() if now is None else now
        lines: List[str] = []
        counts = self.counts()
        for state in WORKER_STATES:
            lines.append(
                f'{prefix}_fleet_workers{{state="{state}"}} '
                f"{counts[state]}")
        for name in sorted(self.workers):
            health = self.workers[name]
            label = f'worker="{_escape_label(name)}"'
            up = int(health.state == "live")
            lines.append(f"{prefix}_fleet_worker_up{{{label}}} {up}")
            lines.append(
                f"{prefix}_fleet_worker_last_seen_seconds{{{label}}} "
                f"{max(0.0, now - health.last_seen):.3f}")
            lines.append(
                f"{prefix}_fleet_worker_beats{{{label}}} {health.beats}")
            lines.append(
                f"{prefix}_fleet_worker_restarts{{{label}}} "
                f"{health.restarts}")
            lines.append(
                f"{prefix}_fleet_worker_faults_per_sec{{{label}}} "
                f"{health.faults_per_sec:g}")
            if health.queue_depth is not None:
                lines.append(
                    f"{prefix}_fleet_worker_queue_depth{{{label}}} "
                    f"{health.queue_depth}")
            for mname in sorted(health.metrics):
                event = health.metrics[mname]
                flat = prometheus_name(mname, prefix)
                etype = event.get("type")
                value = event.get("value")
                if etype == "counter":
                    lines.append(f"{flat}_total{{{label}}} {value}")
                elif etype == "gauge" and value is not None:
                    lines.append(f"{flat}{{{label}}} {value}")
                elif etype == "histogram" and event.get("count"):
                    lines.append(f"{flat}_count{{{label}}} "
                                 f"{event['count']}")
                    lines.append(f"{flat}_sum{{{label}}} "
                                 f"{event['sum']}")
                    for key in ("p50", "p90", "p99"):
                        if key in event:
                            quantile = int(key[1:]) / 100.0
                            lines.append(
                                f'{flat}_quantiles{{{label},'
                                f'quantile="{quantile:g}"}} '
                                f"{event[key]}")
        return "\n".join(lines) + ("\n" if lines else "")
