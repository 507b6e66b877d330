"""Job model and store for the evaluation service.

A :class:`Job` is one client request — rank, grade, spectrum,
recommend or grade-shard — flowing through the states ``queued ->
running -> done | failed | cancelled``.  Parameters are validated and
canonicalized at admission (:func:`canonical_params`), so everything
downstream — the queue, the coalescer, the workers — sees one spelling
per request, and the job's :attr:`~Job.cache_key` (a
:func:`~repro.cache.keys.stable_hash` over kind + canonical params) is
the coalescing identity: two jobs with equal keys are the same
computation.

The :class:`JobStore` owns every job the service has admitted and
retains finished jobs for a TTL, so clients can poll results after
completion without the store growing without bound.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..cache.keys import stable_hash
from ..errors import ServiceError
from ..resolve import resolve_design, resolve_generator, resolve_generator_key
from ..telemetry import TraceContext

__all__ = ["Job", "JobState", "JobStore", "JOB_KINDS", "canonical_params"]

#: Request kinds the service evaluates (spectrum ranking per Table 3
#: is ``rank``, fault grading per Tables 4-5 is ``grade``;
#: ``recommend`` answers "best generator for this design" from the
#: analytic predictor, gate-grading only the top-k candidates;
#: ``grade-shard`` is exact gate-level grading — explicit global fault
#: indices in, per-index verdicts + detection times + a MISR signature
#: partial out (see :mod:`repro.cluster`) — the long-running kind whose
#: per-batch progress shows up live on the job document.  Indices
#: ``0..n-1`` with ``total = n`` grade a universe prefix whole.
JOB_KINDS = ("rank", "grade", "spectrum", "recommend", "grade-shard")

#: Admission-time guard rails on request sizes.
MAX_VECTORS = 1 << 18
MAX_WIDTH = 24
MIN_WIDTH = 4
MAX_POINTS = 1 << 14
#: Gate-level grading is exact (and therefore slow); keep service
#: requests bounded so one job cannot monopolize an executor thread.
MAX_GATE_VECTORS = 1 << 12
MAX_GATE_FAULTS = 1 << 14
#: Largest fault universe a shard's global indices may address (the
#: MISR stream length); comfortably above every Table 1 design.
MAX_SHARD_TOTAL = 1 << 20
#: MISR compaction widths the shard signature partial supports.
MIN_MISR_WIDTH = 4
MAX_MISR_WIDTH = 24


class JobState(str, Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def _int_param(params: Dict[str, Any], name: str, default: int,
               lo: int, hi: int) -> int:
    raw = params.pop(name, default)
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ServiceError(f"parameter {name!r} must be an integer, "
                           f"got {raw!r}", status=400) from None
    if not lo <= value <= hi:
        raise ServiceError(f"parameter {name!r} must be in [{lo}, {hi}], "
                           f"got {value}", status=400)
    return value


def _index_list(params: Dict[str, Any], name: str,
                total: int) -> List[int]:
    """A non-empty list of distinct global fault indices ``< total``."""
    raw = params.pop(name, None)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ServiceError(f"parameter {name!r} must be a non-empty "
                           f"list of fault indices", status=400)
    if len(raw) > MAX_GATE_FAULTS:
        raise ServiceError(f"parameter {name!r} holds {len(raw)} indices; "
                           f"at most {MAX_GATE_FAULTS} per shard",
                           status=400)
    out: List[int] = []
    for item in raw:
        try:
            value = int(item)
        except (TypeError, ValueError):
            raise ServiceError(f"parameter {name!r} must hold integers, "
                               f"got {item!r}", status=400) from None
        if not 0 <= value < total:
            raise ServiceError(f"fault index {value} out of range "
                               f"[0, {total})", status=400)
        out.append(value)
    if len(set(out)) != len(out):
        raise ServiceError(f"parameter {name!r} holds duplicate indices",
                           status=400)
    return out


def _trace_param(params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """An optional ``{"trace_id": ..., "span_id": ...}`` dict naming
    where the shard's spans hang in the *coordinator's* trace."""
    raw = params.pop("trace", None)
    if raw is None:
        return None
    if (not isinstance(raw, dict)
            or not isinstance(raw.get("trace_id"), str)
            or not isinstance(raw.get("span_id"), (str, type(None)))):
        raise ServiceError("parameter 'trace' must be a dict with a "
                           "trace_id string and an optional span_id",
                           status=400)
    return {"trace_id": raw["trace_id"], "span_id": raw.get("span_id")}


def canonical_params(kind: str, params: Optional[Dict[str, Any]]
                     ) -> Dict[str, Any]:
    """Validate and canonicalize a request's parameters.

    Raises :class:`~repro.errors.ServiceError` (status 400) on unknown
    kinds, unknown parameter names, out-of-range values, and unknown
    design/generator names (via the shared resolver, so the message
    lists the valid choices).
    """
    if kind not in JOB_KINDS:
        raise ServiceError(f"unknown job kind {kind!r}; "
                           f"valid choices: {', '.join(JOB_KINDS)}",
                           status=400)
    params = dict(params or {})
    out: Dict[str, Any] = {}
    if kind == "rank":
        out["design"] = resolve_design(params.pop("design", "LP"))
        out["vectors"] = _int_param(params, "vectors", 4096, 2, MAX_VECTORS)
    elif kind == "grade":
        out["design"] = resolve_design(params.pop("design", "LP"))
        out["generator"] = resolve_generator_key(
            params.pop("generator", "LFSR-1"))
        out["vectors"] = _int_param(params, "vectors", 4096, 1, MAX_VECTORS)
        out["width"] = _int_param(params, "width", 12, MIN_WIDTH, MAX_WIDTH)
    elif kind == "spectrum":
        out["generator"] = resolve_generator(params.pop("generator", "lfsr1"))
        out["width"] = _int_param(params, "width", 12, MIN_WIDTH, MAX_WIDTH)
        out["points"] = _int_param(params, "points", 64, 1, MAX_POINTS)
    elif kind == "grade-shard":
        out["design"] = resolve_design(params.pop("design", "LP"))
        out["generator"] = resolve_generator(params.pop("generator",
                                                        "lfsr1"))
        out["vectors"] = _int_param(params, "vectors", 256, 1,
                                    MAX_GATE_VECTORS)
        out["width"] = _int_param(params, "width", 12, MIN_WIDTH, MAX_WIDTH)
        out["total"] = _int_param(params, "total", 0, 1, MAX_SHARD_TOTAL)
        out["misr_width"] = _int_param(params, "misr_width", 16,
                                       MIN_MISR_WIDTH, MAX_MISR_WIDTH)
        # 0 = the engine's default time-chunk length.
        out["chunk"] = _int_param(params, "chunk", 0, 0, MAX_VECTORS)
        out["indices"] = _index_list(params, "indices", out["total"])
        trace = _trace_param(params)
        if trace is not None:
            out["trace"] = trace
    elif kind == "recommend":
        out["design"] = resolve_design(params.pop("design", "LP"))
        out["vectors"] = _int_param(params, "vectors", 4096, 2, MAX_VECTORS)
        # top_k bounds the gate-level confirmation passes (0 = analytic
        # ranking only); the confirm budgets share the grade-shard caps.
        out["top_k"] = _int_param(params, "top_k", 2, 0, 5)
        out["confirm_vectors"] = _int_param(
            params, "confirm_vectors", 256, 0, MAX_GATE_VECTORS)
        out["confirm_faults"] = _int_param(
            params, "confirm_faults", 512, 0, MAX_GATE_FAULTS)
        out["bins"] = _int_param(params, "bins", 256, 16, 4096)
    if params:
        raise ServiceError(
            f"unknown parameter(s) for kind {kind!r}: "
            f"{', '.join(sorted(map(str, params)))}", status=400)
    return out


@dataclass
class Job:
    """One admitted request and everything known about it."""

    id: str
    kind: str
    params: Dict[str, Any]
    client: str
    cache_key: str
    state: JobState = JobState.QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    coalesced: bool = False
    #: Latest progress snapshot (stream name -> progress doc), written
    #: by the worker thread while the job runs; plain dict assignment so
    #: pollers on the event loop always see a consistent snapshot.
    progress: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Where this job hangs in the submitting request's trace; the
    #: worker's spans merge back under it (None when telemetry is off).
    trace: Optional[TraceContext] = field(default=None, repr=False)
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def finish(self, state: JobState, now: float, *,
               result: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None) -> None:
        """Move to a terminal state and wake long-pollers."""
        self.state = state
        self.finished = now
        self.result = result
        self.error = error
        self.done.set()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (the ``GET /v1/jobs/{id}`` body)."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "params": dict(self.params),
            "client": self.client,
            "state": self.state.value,
            "created_unix": self.created,
            "coalesced": self.coalesced,
        }
        if self.trace is not None:
            doc["trace_id"] = self.trace.trace_id
        if self.started is not None:
            doc["started_unix"] = self.started
            doc["queued_seconds"] = self.started - self.created
        if self.finished is not None:
            doc["finished_unix"] = self.finished
            if self.started is not None:
                doc["running_seconds"] = self.finished - self.started
        if self.progress is not None:
            doc["progress"] = dict(self.progress)
        if self.error is not None:
            doc["error"] = self.error
        if self.state is JobState.DONE and self.result is not None:
            doc["result"] = self.result
        return doc


class JobStore:
    """Owns admitted jobs; TTL result retention.

    ``clock`` is injectable for tests; it must be monotonic-ish (the
    default wall clock is fine operationally, a fake clock is fine in
    tests).
    """

    def __init__(self, result_ttl: float = 600.0,
                 clock: Callable[[], float] = time.time):
        if result_ttl <= 0:
            raise ServiceError(f"result_ttl must be positive, "
                               f"got {result_ttl}")
        self.result_ttl = result_ttl
        self.clock = clock
        self._jobs: Dict[str, Job] = {}
        self._seq = itertools.count(1)
        self._prefix = os.urandom(3).hex()

    def __len__(self) -> int:
        return len(self._jobs)

    def create(self, kind: str, params: Optional[Dict[str, Any]], *,
               client: str = "anonymous") -> Job:
        """Admit a request as a new queued job."""
        self.purge()
        canon = canonical_params(kind, params)
        # The coordinator's trace pointer names *where spans hang*, not
        # *what is computed* — exclude it from the coalescing identity
        # so identical shards from different runs share one future.
        keyed = {k: v for k, v in canon.items() if k != "trace"}
        job = Job(
            id=f"j-{self._prefix}-{next(self._seq):06d}",
            kind=kind,
            params=canon,
            client=client,
            cache_key=stable_hash({"kind": kind, "params": keyed}),
            created=self.clock(),
        )
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        self.purge()
        return self._jobs.get(job_id)

    def discard(self, job: Job) -> None:
        """Forget a job entirely (admission failed after ``create``)."""
        self._jobs.pop(job.id, None)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the ``/metrics`` breakdown)."""
        out = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            out[job.state.value] += 1
        return out

    def purge(self, now: Optional[float] = None) -> int:
        """Drop finished jobs older than the retention TTL."""
        now = self.clock() if now is None else now
        horizon = now - self.result_ttl
        stale = [j for j in self._jobs.values()
                 if j.state.finished and j.finished is not None
                 and j.finished < horizon]
        for job in stale:
            del self._jobs[job.id]
        return len(stale)
