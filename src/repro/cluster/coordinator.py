"""Shard dispatch across a fleet of ``repro serve`` workers.

The coordinator plans cone-aligned shards (:mod:`~repro.cluster.shards`),
runs one dispatcher thread per worker endpoint, and drives each shard
through the existing HTTP+JSON job protocol as a ``grade-shard`` job:

* **Retry with capped backoff** — a failed or timed-out shard goes back
  on the queue (preferring a *different* endpoint than the one that just
  failed it) while the failing dispatcher sleeps an exponentially
  growing, jittered, capped backoff; a shard that exhausts
  ``max_retries`` aborts the run with :class:`~repro.errors.ClusterError`.
* **Straggler re-dispatch** — once the queue is empty, an idle
  dispatcher speculatively duplicates the longest-inflight shard after a
  deadline (``straggler_factor`` x the median completed-shard time, at
  least ``straggler_min``); the merge layer deduplicates by shard id and
  cross-checks that duplicate deliveries agree, so speculation can only
  add safety, never skew.
* **Liveness from dispatch outcomes** — an endpoint is ``suspect``
  after one failed shard in a row, ``dead`` after two, ``live`` after a
  completed shard.  A dead endpoint is fenced while another is not
  dead: it takes no shard and probes ``/healthz`` after each backoff,
  spending no shard's retry budget.  With every endpoint dead nothing
  is fenced, so ``max_retries`` ends the run.
* **One span tree, live progress** — each dispatch runs under a
  ``cluster.shard`` span carrying the coordinator's
  :class:`~repro.telemetry.TraceContext`; workers return their span
  payload inside the job result and the coordinator grafts it with
  ``tel.absorb``, so a multi-node sweep renders exactly like a local one.
  Live per-shard ``gates.grade`` progress from job documents is folded
  into the coordinator's monotone ``cluster.grade`` stream.

Merged verdicts, coverage checkpoints and the MISR signature are
bit-identical to :func:`single_node_grade` — ``verify=True`` re-proves
it in-process, and the CI cluster-smoke job re-proves it across real
processes with a worker killed mid-run.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ClusterError
from ..service.client import ServiceBusy, ServiceClient, ServiceClientError
from ..telemetry import TraceContext, get_telemetry
from .shards import (
    DEFAULT_MISR_WIDTH,
    DEFAULT_SHARD_FAULTS,
    MergedGrade,
    Shard,
    grading_problem,
    merge_shard_results,
    plan_shards,
    single_node_grade,
)

__all__ = ["ClusterCoordinator", "ClusterReport", "run_cluster_sweep"]

logger = logging.getLogger("repro.cluster")

CLUSTER_SCHEMA = "repro-cluster-sweep/1"

#: An endpoint's liveness, from its own dispatch outcomes.
WORKER_STATES = ("live", "suspect", "dead")


@dataclass
class WorkerTally:
    """Per-endpoint accounting for the report and the ledger record."""

    endpoint: str
    shards: int = 0
    faults: int = 0
    busy_seconds: float = 0.0
    failures: int = 0
    state: str = "live"  # or "suspect" / "dead", from dispatch outcomes

    def to_doc(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "state": self.state,
            "shards": self.shards,
            "faults": self.faults,
            "busy_seconds": round(self.busy_seconds, 6),
            "failures": self.failures,
        }


@dataclass
class ClusterReport:
    """Everything a sharded sweep produced and how it got there."""

    merged: MergedGrade
    params: Dict[str, Any]
    shards: int
    workers: List[WorkerTally]
    shard_timings: List[Dict[str, Any]]
    attempts: int = 0
    retries: int = 0
    speculated: int = 0
    duplicates: int = 0
    elapsed_seconds: float = 0.0
    verified: Optional[bool] = None

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": CLUSTER_SCHEMA,
            "params": dict(self.params),
            "faults": self.merged.total,
            "detected": self.merged.detected,
            "missed": self.merged.total - self.merged.detected,
            "coverage": self.merged.coverage,
            "signature": f"0x{self.merged.signature:x}",
            "checkpoints": [{"vectors": t, "coverage": c}
                            for t, c in self.merged.checkpoints],
            "shards": self.shards,
            "attempts": self.attempts,
            "retries": self.retries,
            "speculated": self.speculated,
            "duplicates": self.duplicates,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "workers": [w.to_doc() for w in self.workers],
            "shard_timings": list(self.shard_timings),
        }
        if self.verified is not None:
            doc["verified"] = self.verified
        return doc


@dataclass
class _Task:
    shard: Shard
    attempt: int = 0
    avoid: Optional[str] = None


@dataclass
class _Inflight:
    """One running attempt, keyed by ``(shard_id, endpoint)`` — a
    speculated shard legitimately runs on two endpoints at once."""

    started: float
    progress_done: int = 0


class ClusterCoordinator:
    """Drives a planned shard list through a worker fleet."""

    def __init__(
        self,
        endpoints: Sequence[str],
        job_params: Dict[str, Any],
        *,
        total: int,
        test_length: int,
        misr_width: int = DEFAULT_MISR_WIDTH,
        shard_timeout: float = 600.0,
        max_retries: int = 4,
        backoff_base: float = 0.5,
        backoff_cap: float = 15.0,
        straggler_factor: float = 3.0,
        straggler_min: float = 60.0,
        poll: float = 2.0,
        client_factory: Optional[Callable[[str], ServiceClient]] = None,
    ):
        if not endpoints:
            raise ClusterError("at least one worker endpoint is required")
        if max_retries < 0:
            raise ClusterError(f"max_retries must be >= 0, "
                               f"got {max_retries}")
        self.endpoints = list(dict.fromkeys(endpoints))  # stable dedupe
        self.job_params = dict(job_params)
        self.total = total
        self.test_length = test_length
        self.misr_width = misr_width
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.straggler_factor = straggler_factor
        self.straggler_min = straggler_min
        self.poll = poll
        self._client_factory = client_factory or (
            lambda ep: ServiceClient(
                ep, client_id=f"cluster-{os.getpid()}",
                timeout=max(30.0, poll + 10.0), retries=3))
        self._rng = random.Random(0x5EED)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: List[_Task] = []
        self._inflight: Dict[Any, _Inflight] = {}  # (sid, endpoint) keys
        self._results: List[Dict[str, Any]] = []
        self._done_ids: set = set()
        self._speculated_ids: set = set()
        self._completed_seconds: List[float] = []
        self._fatal: Optional[ClusterError] = None
        self._payloads: List[Dict[str, Any]] = []

        self.tallies = {ep: WorkerTally(ep) for ep in self.endpoints}
        self.shard_timings: List[Dict[str, Any]] = []
        self.attempts = 0
        self.retries = 0
        self.speculated = 0
        self.duplicates = 0

    # ------------------------------------------------------------------
    # Scheduling decisions (all under the lock)
    # ------------------------------------------------------------------
    def _straggler_deadline(self) -> float:
        if not self._completed_seconds:
            return max(self.straggler_min, self.shard_timeout / 2.0)
        times = sorted(self._completed_seconds)
        median = times[len(times) // 2]
        return max(self.straggler_min, self.straggler_factor * median)

    def _pick(self, endpoint: str) -> Optional[_Task]:
        """Next task for ``endpoint``: queued work first (preferring
        shards that did not just fail here), then a straggler to
        speculate on; ``None`` means wait."""
        for i, task in enumerate(self._pending):
            if task.avoid != endpoint:
                return self._pending.pop(i)
        if self._pending:  # only avoid-matching tasks left: take one
            return self._pending.pop(0)
        deadline = self._straggler_deadline()
        now = time.monotonic()
        candidates = [
            (info.started, sid, ep)
            for (sid, ep), info in self._inflight.items()
            if sid not in self._speculated_ids and ep != endpoint
            and sid not in self._done_ids
            and now - info.started > deadline
        ]
        if not candidates:
            return None
        _started, sid, holder = min(candidates)
        self._speculated_ids.add(sid)
        self.speculated += 1
        logger.warning("cluster: speculatively re-dispatching straggler "
                       "shard %d (running on %s) to %s", sid, holder,
                       endpoint)
        return _Task(self._shards_by_id[sid], attempt=0, avoid=holder)

    def _finished(self) -> bool:
        return (self._fatal is not None
                or len(self._done_ids) == len(self._shards_by_id))

    def _fenced(self, endpoint: str) -> bool:
        """A dead endpoint takes no shard while another is not dead."""
        return (self.tallies[endpoint].state == "dead"
                and any(t.state != "dead" for ep, t in self.tallies.items()
                        if ep != endpoint))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _emit_progress(self, tel) -> None:
        if not tel.enabled:
            return
        done = sum(len(self._shards_by_id[sid]) for sid in self._done_ids)
        live: Dict[int, int] = {}
        for (sid, _ep), info in self._inflight.items():
            if sid not in self._done_ids:
                live[sid] = max(live.get(sid, 0), info.progress_done)
        partial = sum(live.values())
        tel.progress("cluster.grade", min(done + partial, self.total),
                     self.total, shards_done=len(self._done_ids),
                     shards=len(self._shards_by_id))

    def _execute(self, endpoint: str, client: ServiceClient,
                 task: _Task) -> Dict[str, Any]:
        """Run one shard on one worker; raises on any failure."""
        shard = task.shard
        params = dict(self.job_params)
        params["indices"] = list(shard.indices)
        params["total"] = self.total
        params["misr_width"] = self.misr_width
        tel = get_telemetry()
        ctx = TraceContext.current()
        if ctx is not None:
            params["trace"] = {"trace_id": ctx.trace_id,
                               "span_id": ctx.span_id}
        job_id = client.submit("grade-shard", params)["id"]
        t0 = time.monotonic()
        try:
            while True:
                elapsed = time.monotonic() - t0
                if elapsed > self.shard_timeout:
                    raise ClusterError(
                        f"shard {shard.shard_id} timed out after "
                        f"{self.shard_timeout:g}s on {endpoint}")
                doc = client.job(job_id, wait=self.poll)
                stream = (doc.get("progress") or {}).get("gates.grade")
                if stream is not None:
                    with self._lock:
                        info = self._inflight.get(
                            (shard.shard_id, endpoint))
                        if info is not None:
                            info.progress_done = int(stream.get("done", 0))
                        self._emit_progress(tel)
                if doc.get("state") in ("done", "failed", "cancelled"):
                    break
        except BaseException:
            self._cancel_quietly(client, job_id)
            raise
        if doc["state"] != "done":
            raise ClusterError(
                f"shard {shard.shard_id} {doc['state']} on {endpoint}: "
                f"{doc.get('error', 'no result')}")
        result = dict(doc.get("result") or {})
        result["shard"] = shard.shard_id
        return result

    @staticmethod
    def _cancel_quietly(client: ServiceClient, job_id: str) -> None:
        try:
            client.cancel(job_id)
        except Exception:
            pass

    def _backoff(self, consecutive: int) -> float:
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** max(consecutive - 1, 0)))
        with self._lock:
            jitter = 0.5 + self._rng.random()  # 0.5x .. 1.5x
        return delay * jitter

    def _wait(self, seconds: float) -> None:
        """Sleep ``seconds``, or less if the sweep ends first."""
        deadline = time.monotonic() + seconds
        with self._cond:
            while not self._finished():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)

    def _dispatcher(self, endpoint: str) -> None:
        tel = get_telemetry()
        client = self._client_factory(endpoint)
        tally = self.tallies[endpoint]
        consecutive_failures = 0
        while True:
            with self._cond:
                while True:
                    if self._finished():
                        self._cond.notify_all()
                        return
                    if self._fenced(endpoint):
                        task = None
                        break
                    task = self._pick(endpoint)
                    if task is not None:
                        break
                    self._cond.wait(timeout=1.0)
                if task is not None:
                    sid = task.shard.shard_id
                    self._inflight[(sid, endpoint)] = _Inflight(
                        time.monotonic())
                    self.attempts += 1
            if task is None:
                # Fenced, and the last failure's backoff is already
                # waited out: probe instead of spending a shard attempt.
                try:
                    client.healthz()
                except (ServiceBusy, ServiceClientError, OSError,
                        TimeoutError):
                    consecutive_failures += 1  # a longer backoff only
                    self._wait(self._backoff(consecutive_failures))
                    continue
                consecutive_failures = 0
                with self._cond:
                    tally.state = "live"
                continue
            t0 = time.monotonic()
            try:
                with tel.span("cluster.shard", shard=sid,
                              endpoint=endpoint, attempt=task.attempt,
                              faults=len(task.shard)):
                    result = self._execute(endpoint, client, task)
            except (ClusterError, ServiceBusy, ServiceClientError,
                    OSError, TimeoutError) as exc:
                consecutive_failures += 1
                seconds = time.monotonic() - t0
                logger.warning("cluster: shard %d attempt %d failed on "
                               "%s after %.1fs: %s", sid, task.attempt,
                               endpoint, seconds, exc)
                with self._cond:
                    tally.failures += 1
                    tally.state = ("dead" if consecutive_failures >= 2
                                   else "suspect")
                    self._inflight.pop((sid, endpoint), None)
                    if sid in self._done_ids:
                        pass  # a speculative twin already delivered it
                    elif task.attempt >= self.max_retries:
                        self._fatal = ClusterError(
                            f"shard {sid} failed after "
                            f"{task.attempt + 1} attempts; last error "
                            f"on {endpoint}: {exc}")
                    else:
                        self.retries += 1
                        self._pending.append(_Task(
                            task.shard, attempt=task.attempt + 1,
                            avoid=endpoint))
                    self._cond.notify_all()
                if tel.enabled:
                    tel.counter("cluster.shard_failures").add(1)
                self._wait(self._backoff(consecutive_failures))
                continue
            consecutive_failures = 0
            seconds = time.monotonic() - t0
            payload = result.pop("trace", None)
            with self._cond:
                if payload is not None:
                    self._payloads.append(payload)
                duplicate = sid in self._done_ids
                if duplicate:
                    self.duplicates += 1
                self._results.append(result)
                self._done_ids.add(sid)
                self._inflight.pop((sid, endpoint), None)
                if not duplicate:
                    self._completed_seconds.append(seconds)
                tally.state = "live"
                tally.shards += 1
                tally.faults += len(task.shard)
                tally.busy_seconds += seconds
                self.shard_timings.append({
                    "shard": sid,
                    "endpoint": endpoint,
                    "attempt": task.attempt,
                    "faults": len(task.shard),
                    "seconds": round(seconds, 6),
                    "duplicate": duplicate,
                })
                self._emit_progress(tel)
                self._cond.notify_all()
            if tel.enabled:
                tel.counter("cluster.shards_done").add(1)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, shards: Sequence[Shard]) -> ClusterReport:
        if not shards:
            raise ClusterError("no shards to dispatch")
        self._shards_by_id = {s.shard_id: s for s in shards}
        if len(self._shards_by_id) != len(shards):
            raise ClusterError("shard ids must be unique")
        self._pending = [_Task(s) for s in shards]
        tel = get_telemetry()
        t0 = time.monotonic()
        with tel.span("cluster.sweep", shards=len(shards),
                      faults=self.total,
                      workers=len(self.endpoints)):
            threads = [
                threading.Thread(target=self._dispatcher, args=(ep,),
                                 name=f"cluster-{i}", daemon=True)
                for i, ep in enumerate(self.endpoints)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Graft every worker's span payload under the sweep span.
            if tel.enabled:
                for payload in self._payloads:
                    tel.absorb(payload)
        if self._fatal is not None:
            raise self._fatal
        merged = merge_shard_results(
            self.total, self._results, test_length=self.test_length,
            misr_width=self.misr_width)
        return ClusterReport(
            merged=merged,
            params=dict(self.job_params, total=self.total,
                        misr_width=self.misr_width),
            shards=len(shards),
            workers=[self.tallies[ep] for ep in self.endpoints],
            shard_timings=self.shard_timings,
            attempts=self.attempts,
            retries=self.retries,
            speculated=self.speculated,
            duplicates=self.duplicates,
            elapsed_seconds=time.monotonic() - t0,
        )


def run_cluster_sweep(
    endpoints: Sequence[str],
    *,
    design: str = "LP",
    generator: str = "lfsr1",
    vectors: int = 512,
    width: int = 12,
    faults_limit: int = 0,
    shard_faults: int = DEFAULT_SHARD_FAULTS,
    chunk: int = 0,
    misr_width: int = DEFAULT_MISR_WIDTH,
    shard_timeout: float = 600.0,
    max_retries: int = 4,
    straggler_factor: float = 3.0,
    straggler_min: float = 60.0,
    poll: float = 2.0,
    verify: bool = False,
    cache=None,
    client_factory: Optional[Callable[[str], ServiceClient]] = None,
) -> ClusterReport:
    """Plan, dispatch and merge one sharded sweep; optionally verify.

    The universe and stimulus come from :func:`grading_problem`, as on
    every worker, so global fault indices mean the same thing on every
    node.  ``verify=True`` additionally runs the single-node oracle
    locally and raises :class:`~repro.errors.ClusterError` unless
    verdicts, detection times, checkpoints and the MISR signature are
    all bit-identical — a live proof that sharding is exact.
    """
    from ..experiments import ExperimentContext
    from ..resolve import resolve_design, resolve_generator

    if faults_limit < 0:
        raise ClusterError(
            f"faults_limit must be >= 0 (0 = the full fault universe), "
            f"got {faults_limit}")
    design = resolve_design(design)
    generator = resolve_generator(generator)
    _dsg, nl, faults, raw = grading_problem(
        ExperimentContext(cache=cache), design, generator, vectors, width)
    if faults_limit:
        faults = faults[:faults_limit]
    shards = plan_shards(faults, max_faults=shard_faults)

    # Global indices address the *prefix-truncated* universe the same
    # way they address the full one, so a --faults cap needs no extra
    # parameter: ``total`` bounds the signature stream and every index
    # the workers see is below it.
    job_params = {
        "design": design,
        "generator": generator,
        "vectors": vectors,
        "width": width,
    }
    if chunk:
        job_params["chunk"] = chunk
    coordinator = ClusterCoordinator(
        endpoints, job_params, total=len(faults), test_length=len(raw),
        misr_width=misr_width, shard_timeout=shard_timeout,
        max_retries=max_retries, straggler_factor=straggler_factor,
        straggler_min=straggler_min, poll=poll,
        client_factory=client_factory)
    report = coordinator.run(shards)
    if verify:
        oracle = single_node_grade(
            nl, raw, faults, misr_width=misr_width, cache=cache,
            chunk=chunk or None)
        report.verified = report.merged.identical_to(oracle)
        if not report.verified:
            raise ClusterError(
                "sharded result differs from the single-node oracle "
                f"(cluster signature 0x{report.merged.signature:x}, "
                f"single-node 0x{oracle.signature:x})")
    return report
