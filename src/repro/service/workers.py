"""Worker pool: drains the job queue into the evaluation pipeline.

A fixed set of asyncio worker tasks pull jobs off the
:class:`~repro.service.queue.FairJobQueue`; the blocking evaluation
work runs on a thread-pool executor so the event loop (and therefore
intake, polling and health endpoints) stays responsive.  Three
throughput tricks ride on top:

* **Batching** — after claiming a job of a batchable kind, a worker
  immediately takes up to ``batch_max - 1`` more queued jobs of the
  same kind and executes them as one pass: spectrum batches become a
  single stacked FFT (:func:`~repro.analysis.spectrum.generator_spectra`)
  and grade batches fan out through :func:`~repro.parallel.sweep.run_sweep`'s
  process pool.
* **Coalescing** — jobs are grouped by
  :attr:`~repro.service.jobs.Job.cache_key`; only one computation runs
  per key and every duplicate (in the batch or already in flight on
  another worker) is resolved from the same future.
* **Caching** — the shared :class:`~repro.experiments.ExperimentContext`
  is cache-backed, so results also persist across requests and
  restarts via :mod:`repro.cache`.

All results are bit-identical to calling the library directly — the
end-to-end suite asserts it.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.spectrum import generator_spectrum, power_db
from ..bist.selection import propose_scheme, rank_generators
from ..errors import ServiceError
from ..resolve import make_generator
from ..telemetry import TraceContext, child_collector, get_telemetry
from .jobs import BATCHABLE_KINDS, Job, JobState, JobStore
from .queue import FairJobQueue, QueueClosedError

__all__ = ["WorkerPool", "execute_job"]

logger = logging.getLogger("repro.service")

#: Outcome tuples shipped back from the executor: ("ok", result-dict)
#: or ("error", one-line message).
Outcome = Tuple[str, Any]

#: run_sweep publishes worker state through module globals, so only one
#: grade grid may fan out at a time (process-level parallelism happens
#: *inside* the sweep).
_SWEEP_LOCK = threading.Lock()


# ----------------------------------------------------------------------
# Synchronous evaluation (runs on executor threads)
# ----------------------------------------------------------------------
def _grade_result(params: Dict[str, Any], result) -> Dict[str, Any]:
    return {
        "design": params["design"],
        "generator": result.generator_name,
        "vectors": params["vectors"],
        "width": params["width"],
        "fault_count": result.universe.fault_count,
        "detected": result.detected(),
        "missed": result.missed(),
        "coverage": float(result.coverage()),
    }


def _spectrum_result(params: Dict[str, Any], gen, freqs, power
                     ) -> Dict[str, Any]:
    step = max(1, len(freqs) // params["points"])
    return {
        "generator": gen.name,
        "width": params["width"],
        "freqs": [float(f) for f in freqs[::step]],
        "power_db": [float(p) for p in power_db(power[::step])],
    }


def execute_job(ctx, kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one request against the library — the reference path.

    The service's answers are, by construction, exactly what a direct
    library call returns; this function *is* that direct call, and the
    batched paths below must agree with it bit for bit.
    """
    if kind == "rank":
        design = ctx.designs[params["design"]]
        rankings = rank_generators(design)
        scheme = propose_scheme(design, n_vectors=params["vectors"])
        return {
            "design": params["design"],
            "vectors": params["vectors"],
            "rankings": [{"generator": r.generator.name,
                          "rating": r.rating,
                          "ratio": float(r.ratio)} for r in rankings],
            "proposed_scheme": scheme.name,
        }
    if kind == "grade":
        from ..parallel.sweep import sweep_generator

        gen = sweep_generator(params["generator"], params["width"],
                              params["vectors"])
        result = ctx.coverage(params["design"], gen, params["vectors"])
        return _grade_result(params, result)
    if kind == "spectrum":
        gen = make_generator(params["generator"], params["width"], 4096)
        freqs, power = generator_spectrum(gen)
        return _spectrum_result(params, gen, freqs, power)
    if kind == "grade-shard":
        from ..cluster.shards import grade_shard, grading_problem

        _design, nl, faults, raw = grading_problem(
            ctx, params["design"], params["generator"], params["vectors"],
            params["width"])
        for i in params["indices"]:
            if i >= len(faults):
                raise ServiceError(
                    f"fault index {i} out of range for design "
                    f"{params['design']} ({len(faults)} faults)",
                    status=400)
        trace = params.get("trace")
        ctx_trace = (TraceContext(trace["trace_id"], trace.get("span_id"))
                     if trace else None)
        # The shard runs under a *nested* child collector joined to the
        # coordinator's trace; its payload rides home inside the result
        # so a multi-node sweep grafts into one span tree.  Progress is
        # forwarded to the service collector so the job document (which
        # the coordinator polls) still updates live.
        outer = get_telemetry()

        def _forward(state) -> None:
            if outer.enabled:
                outer.progress(state.name, state.done, state.total,
                               **state.fields)

        with child_collector(ctx_trace, on_progress=_forward) as handle:
            doc = grade_shard(nl, raw, faults, params["indices"],
                              params["total"],
                              misr_width=params["misr_width"],
                              cache=ctx.cache,
                              chunk=params["chunk"] or None)
        doc.update({
            "design": params["design"],
            "generator": params["generator"],
            "vectors": params["vectors"],
            "width": params["width"],
            "total": params["total"],
            "misr_width": params["misr_width"],
        })
        if handle.payload is not None:
            doc["trace"] = handle.payload
        return doc
    if kind == "recommend":
        from ..schedule import recommend_generator

        return recommend_generator(
            ctx, params["design"], vectors=params["vectors"],
            top_k=params["top_k"],
            confirm_vectors=params["confirm_vectors"],
            confirm_faults=params["confirm_faults"],
            bins=params["bins"])
    if kind == "serious-fault":
        from ..experiments.figures import find_serious_missed_fault

        miss = find_serious_missed_fault(ctx)
        design = ctx.designs["LP"]
        node = design.graph.node(miss.fault.node_id)
        return {
            "design": "LP",
            "fault": str(miss.fault.label),
            "node": node.name,
            "tap": node.tap,
            "bit": int(miss.fault.bit),
            "sine_freq": float(miss.freq),
            "sine_amplitude": float(miss.amplitude),
            "error_spikes": int(miss.spikes),
        }
    raise ServiceError(f"unknown job kind {kind!r}", status=400)


def _execute_safe(ctx, kind: str, params: Dict[str, Any]) -> Outcome:
    try:
        return ("ok", execute_job(ctx, kind, params))
    except Exception as exc:  # job-level isolation: one bad job != batch
        logger.warning("job execution failed (%s %r): %s", kind, params, exc)
        return ("error", f"{type(exc).__name__}: {exc}")


def _spectrum_batch(ctx, params_list: List[Dict[str, Any]]) -> List[Outcome]:
    """All spectra of a batch in one vectorized pass."""
    from ..analysis.spectrum import generator_spectra

    gens = [make_generator(p["generator"], p["width"], 4096)
            for p in params_list]
    spectra = generator_spectra(gens)
    return [("ok", _spectrum_result(p, gen, freqs, power))
            for p, gen, (freqs, power) in zip(params_list, gens, spectra)]


def _grade_batch(ctx, params_list: List[Dict[str, Any]],
                 grid_jobs: Optional[int]) -> List[Outcome]:
    """A batch of grade jobs as one process-pool sweep."""
    from ..parallel.sweep import SweepTask, run_sweep

    tasks = [SweepTask(design=p["design"], generator=p["generator"],
                       n_vectors=p["vectors"], width=p["width"])
             for p in params_list]
    with _SWEEP_LOCK:
        results = run_sweep(ctx, tasks, jobs=grid_jobs)
    return [("ok", _grade_result(p, r))
            for p, r in zip(params_list, results)]


def _execute_batch(ctx, kind: str, params_list: List[Dict[str, Any]],
                   grid_jobs: Optional[int]) -> List[Outcome]:
    """Executor entry point: evaluate a same-kind batch.

    Batched fast paths degrade to per-job serial execution on any
    batch-level failure, so a batch never loses jobs to a fast path.
    """
    try:
        if len(params_list) > 1:
            if kind == "spectrum":
                return _spectrum_batch(ctx, params_list)
            if kind == "grade":
                return _grade_batch(ctx, params_list, grid_jobs)
    except Exception:
        logger.exception("batched %s execution failed; retrying serially",
                         kind)
    return [_execute_safe(ctx, kind, p) for p in params_list]


def _execute_batch_traced(ctx, kind: str, params_list: List[Dict[str, Any]],
                          grid_jobs: Optional[int],
                          trace: Optional[TraceContext],
                          on_progress=None
                          ) -> Tuple[List[Outcome], Optional[Dict[str, Any]]]:
    """Executor entry point with trace propagation.

    Runs the batch on the executor thread inside a child collector
    joined to ``trace`` (the span of the HTTP request that submitted
    the batch's first leader), wrapped in a ``service.job`` span.  Any
    process-pool fan-out below (grade grids) propagates the same trace
    further, so the merged payload carries the full request → job →
    chunk span chain.  ``on_progress`` observes the child collector's
    live progress streams (fired on this executor thread) so the pool
    can surface them on job documents while the batch is still running.
    """
    with child_collector(trace, on_progress=on_progress) as handle:
        tel = get_telemetry()
        with tel.span("service.job", kind=kind, jobs=len(params_list)):
            outcomes = _execute_batch(ctx, kind, params_list, grid_jobs)
    return outcomes, handle.payload


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Asyncio workers + a thread-pool executor for the blocking work."""

    def __init__(self, queue: FairJobQueue, store: JobStore, context, *,
                 workers: int = 2, batch_max: int = 8,
                 grid_jobs: Optional[int] = None, events=None):
        if workers <= 0:
            raise ServiceError(f"workers must be positive, got {workers}")
        if batch_max <= 0:
            raise ServiceError(f"batch_max must be positive, got {batch_max}")
        self.queue = queue
        self.store = store
        self.context = context
        self.workers = workers
        self.batch_max = batch_max
        self.grid_jobs = grid_jobs
        #: Optional :class:`~repro.service.events.EventBroker`; job state
        #: transitions and live progress snapshots are published to it.
        self.events = events
        #: Optional hook called (on the event loop) with each job as it
        #: reaches a terminal state — the lifecycle layer hangs run-ledger
        #: recording off it.
        self.on_finished = None
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service")
        self._inflight: Dict[str, "asyncio.Future[Outcome]"] = {}
        self._tasks: List["asyncio.Task"] = []
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_coalesced = 0
        self.batches = 0
        #: Currently-running job id -> kind (fleet heartbeats report
        #: these as the worker's inflight set).
        self.running: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        loop = asyncio.get_running_loop()
        for i in range(self.workers):
            self._tasks.append(
                loop.create_task(self._worker(i), name=f"repro-worker-{i}"))

    async def join(self) -> None:
        """Wait for every worker to finish draining (queue closed)."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def abort(self) -> None:
        """Deadline exceeded: cancel workers, fail whatever remains."""
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        now = self.store.clock()
        for job in self.store.jobs():
            if not job.state.finished:
                job.finish(JobState.FAILED, now,
                           error="service shut down before completion")
                self.jobs_failed += 1
        self.executor.shutdown(wait=False, cancel_futures=True)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def inflight_jobs(self, limit: int = 16) -> List[str]:
        """Ids of jobs running right now (bounded for heartbeat size)."""
        return sorted(self.running)[:limit]

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    async def _worker(self, wid: int) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosedError:
                return
            batch = [job]
            if job.kind in BATCHABLE_KINDS and self.batch_max > 1:
                batch += self.queue.take_matching(job.kind,
                                                  self.batch_max - 1)
            try:
                await self._run_batch(batch)
            except Exception:  # never let a batch kill the worker
                logger.exception("worker %d: batch execution error", wid)
                now = self.store.clock()
                for j in batch:
                    if not j.state.finished:
                        j.finish(JobState.FAILED, now,
                                 error="internal worker error")
                        self.jobs_failed += 1

    async def _run_batch(self, batch: List[Job]) -> None:
        loop = asyncio.get_running_loop()
        tel = get_telemetry()
        now = self.store.clock()

        # Partition into leaders (first job per not-yet-inflight key)
        # and followers (coalesce onto an existing or new future).
        leaders: List[Job] = []
        leader_futs: Dict[str, "asyncio.Future[Outcome]"] = {}
        for job in batch:
            job.state = JobState.RUNNING
            job.started = now
            self.running[job.id] = job.kind
            fut = self._inflight.get(job.cache_key)
            if fut is None and job.cache_key not in leader_futs:
                leaders.append(job)
                new_fut: "asyncio.Future[Outcome]" = loop.create_future()
                leader_futs[job.cache_key] = new_fut
                self._inflight[job.cache_key] = new_fut
                self._attach(job, new_fut, coalesced=False)
            else:
                job.coalesced = True
                self.jobs_coalesced += 1
                if tel.enabled:
                    tel.counter("service.jobs.coalesced").add(1)
                self._attach(job, fut if fut is not None
                             else leader_futs[job.cache_key], coalesced=True)

        if self.events is not None:
            for job in batch:
                self.events.publish("job", {"job": job.id, "kind": job.kind,
                                            "state": job.state.value,
                                            "coalesced": job.coalesced})

        if not leaders:
            return

        self.batches += 1
        kind = leaders[0].kind
        if tel.enabled:
            tel.counter("service.batches").add(1)
            tel.histogram("service.batch_size").observe(len(leaders))

        # Jobs resolved by *this* computation (leaders plus followers
        # coalesced onto them in this batch); they all share the batch's
        # progress streams.  Followers riding an older in-flight future
        # are fed by that future's own batch.
        watchers = [j for j in batch if j.cache_key in leader_futs]

        def _on_progress(state) -> None:
            # Fires on the executor thread mid-batch.  Whole-dict
            # replacement keeps event-loop readers consistent without a
            # lock; the broker handles its own thread hop.
            doc = state.to_doc()
            for job in watchers:
                merged = dict(job.progress or {})
                merged[state.name] = doc
                job.progress = merged
                if self.events is not None:
                    self.events.publish(
                        "progress", dict(doc, job=job.id, stream=state.name))

        # A coalesced batch can span several requests; the merged trace
        # hangs under the first leader's submitting request.
        trace = leaders[0].trace
        with tel.span("service.batch", kind=kind, jobs=len(leaders)):
            try:
                outcomes, payload = await loop.run_in_executor(
                    self.executor, _execute_batch_traced, self.context,
                    kind, [j.params for j in leaders], self.grid_jobs,
                    trace, _on_progress)
            except Exception as exc:  # executor itself failed
                outcomes, payload = [("error", f"{type(exc).__name__}: {exc}")
                                     for _ in leaders], None
            if tel.enabled:
                tel.absorb(payload)
        for job, outcome in zip(leaders, outcomes):
            fut = self._inflight.pop(job.cache_key, None)
            if fut is not None and not fut.done():
                fut.set_result(outcome)

    def _attach(self, job: Job, fut: "asyncio.Future[Outcome]",
                coalesced: bool) -> None:
        """Resolve ``job`` from ``fut`` when the computation lands."""

        def _finish(f: "asyncio.Future[Outcome]") -> None:
            self.running.pop(job.id, None)
            if job.state.finished or f.cancelled():
                return  # e.g. failed/cancelled by an abort() race
            status, value = f.result()
            now = self.store.clock()
            if status == "ok":
                job.finish(JobState.DONE, now, result=value)
                self.jobs_done += 1
            else:
                job.finish(JobState.FAILED, now, error=str(value))
                self.jobs_failed += 1
            if job.started is not None:
                self.queue.observe_service_seconds(now - job.started)
            tel = get_telemetry()
            if tel.enabled:
                tel.counter(f"service.jobs.{job.state.value}").add(1)
                tel.counter(f"service.jobs.kind.{job.kind}").add(1)
            if self.events is not None:
                self.events.publish("job", {"job": job.id, "kind": job.kind,
                                            "state": job.state.value,
                                            "coalesced": job.coalesced})
            if self.on_finished is not None:
                try:
                    self.on_finished(job)
                except Exception:
                    logger.exception("on_finished hook failed for job %s",
                                     job.id)

        fut.add_done_callback(_finish)
