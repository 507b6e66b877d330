"""Worker pool: drains the job queue into the evaluation pipeline.

A fixed set of asyncio worker tasks pull jobs off the
:class:`~repro.service.queue.JobQueue` one at a time, oldest first.
Each job is evaluated by :func:`execute_job` — the only way the service
computes anything — on a thread-pool executor, so the event loop (and
therefore intake, polling and health endpoints) stays responsive.

* **Coalescing** — jobs are keyed by
  :attr:`~repro.service.jobs.Job.cache_key`; only one computation runs
  per key, and a duplicate that arrives while it runs waits on the
  same future instead of computing again.
* **Caching** — the shared :class:`~repro.experiments.ExperimentContext`
  is cache-backed, so results also persist across requests and
  restarts via :mod:`repro.cache`.

Nothing here forks: the executor threads share the process with the
event loop, and forking a threaded process can stall its BLAS threads
(see :mod:`repro.parallel.pool`).

All results are bit-identical to calling the library directly — the
end-to-end suite asserts it.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.spectrum import generator_spectrum, power_db
from ..bist.selection import propose_scheme, rank_generators
from ..errors import ServiceError
from ..resolve import make_generator
from ..telemetry import TraceContext, child_collector, get_telemetry
from .jobs import Job, JobState, JobStore
from .queue import JobQueue, QueueClosedError

__all__ = ["WorkerPool", "execute_job"]

logger = logging.getLogger("repro.service")

#: Outcome tuples shipped back from the executor: ("ok", result-dict)
#: or ("error", one-line message).
Outcome = Tuple[str, Any]


# ----------------------------------------------------------------------
# Synchronous evaluation (runs on executor threads)
# ----------------------------------------------------------------------
def execute_job(ctx, kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one request against the library — the reference path.

    The service's answers are, by construction, exactly what a direct
    library call returns: every job the service runs goes through here.
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
        gen = make_generator(params["generator"], params["width"],
                             params["vectors"])
        result = ctx.coverage(params["design"], gen, params["vectors"])
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
    if kind == "spectrum":
        gen = make_generator(params["generator"], params["width"], 4096)
        freqs, power = generator_spectrum(gen)
        step = max(1, len(freqs) // params["points"])
        return {
            "generator": gen.name,
            "width": params["width"],
            "freqs": [float(f) for f in freqs[::step]],
            "power_db": [float(p) for p in power_db(power[::step])],
        }
    if kind == "grade-shard":
        from ..cluster.shards import grade_shard, prepared_problem

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

        # One shard at a time per service: the cone sweep holds the GIL,
        # so two shards on two threads grade slower than one after the
        # other, and every shard of a problem reads one prepared build.
        with outer.span("service.grade_wait"):
            ctx.grading_lock.acquire()
        try:
            problem = prepared_problem(
                ctx, params["design"], params["generator"],
                params["vectors"], params["width"])
            for i in params["indices"]:
                if i >= len(problem.faults):
                    raise ServiceError(
                        f"fault index {i} out of range for design "
                        f"{params['design']} ({len(problem.faults)} faults)",
                        status=400)
            with child_collector(ctx_trace, on_progress=_forward) as handle:
                doc = grade_shard(
                    problem.netlist, problem.stimulus, problem.faults,
                    params["indices"], params["total"],
                    misr_width=params["misr_width"],
                    chunk=params["chunk"] or None,
                    program=problem.program, net_waves=problem.golden)
        finally:
            ctx.grading_lock.release()
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
    raise ServiceError(f"unknown job kind {kind!r}", status=400)


def _execute_traced(ctx, kind: str, params: Dict[str, Any],
                    trace: Optional[TraceContext], on_progress=None
                    ) -> Tuple[Outcome, Optional[Dict[str, Any]]]:
    """Executor entry point: one job, with trace propagation.

    Runs :func:`execute_job` on the executor thread inside a child
    collector joined to ``trace`` (the span of the HTTP request that
    submitted the job), wrapped in a ``service.job`` span; the payload
    rides back so the event loop can graft it under that request.
    ``on_progress`` observes the child collector's live progress
    streams (fired on this executor thread) so the pool can surface
    them on the job document while the job is still running.  A failing
    job becomes an ``("error", message)`` outcome, never an exception.
    """
    with child_collector(trace, on_progress=on_progress) as handle:
        with get_telemetry().span("service.job", kind=kind):
            try:
                outcome: Outcome = ("ok", execute_job(ctx, kind, params))
            except Exception as exc:  # job-level isolation
                logger.warning("job execution failed (%s %r): %s", kind,
                               params, exc)
                outcome = ("error", f"{type(exc).__name__}: {exc}")
    return outcome, handle.payload


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Asyncio workers + a thread-pool executor for the blocking work."""

    def __init__(self, queue: JobQueue, store: JobStore, context, *,
                 workers: int = 2, events=None):
        if workers <= 0:
            raise ServiceError(f"workers must be positive, got {workers}")
        self.queue = queue
        self.store = store
        self.context = context
        self.workers = workers
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

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    async def _worker(self, wid: int) -> None:
        while True:
            try:
                job = await self.queue.get()
            except QueueClosedError:
                return
            try:
                await self._run_job(job)
            except Exception:  # never let a job kill the worker
                logger.exception("worker %d: job execution error", wid)
                if not job.state.finished:
                    job.finish(JobState.FAILED, self.store.clock(),
                               error="internal worker error")
                    self.jobs_failed += 1

    async def _run_job(self, job: Job) -> None:
        """Run ``job`` on the executor, or attach it to the running
        computation of the same cache key."""
        loop = asyncio.get_running_loop()
        tel = get_telemetry()
        job.state = JobState.RUNNING
        job.started = self.store.clock()
        fut = self._inflight.get(job.cache_key)
        if fut is not None:
            job.coalesced = True
            self.jobs_coalesced += 1
            if tel.enabled:
                tel.counter("service.jobs.coalesced").add(1)
            self._attach(job, fut)
            self._publish_state(job)
            return
        fut = loop.create_future()
        self._inflight[job.cache_key] = fut
        self._attach(job, fut)
        self._publish_state(job)

        def _on_progress(state) -> None:
            # Fires on the executor thread mid-job.  Whole-dict
            # replacement keeps event-loop readers consistent without a
            # lock; the broker handles its own thread hop.
            doc = state.to_doc()
            merged = dict(job.progress or {})
            merged[state.name] = doc
            job.progress = merged
            if self.events is not None:
                self.events.publish(
                    "progress", dict(doc, job=job.id, stream=state.name))

        try:
            outcome, payload = await loop.run_in_executor(
                self.executor, _execute_traced, self.context, job.kind,
                job.params, job.trace, _on_progress)
        except Exception as exc:  # executor itself failed
            outcome, payload = ("error", f"{type(exc).__name__}: {exc}"), None
        if tel.enabled:
            tel.absorb(payload)
        self._inflight.pop(job.cache_key, None)
        if not fut.done():
            fut.set_result(outcome)

    def _publish_state(self, job: Job) -> None:
        if self.events is not None:
            self.events.publish("job", {"job": job.id, "kind": job.kind,
                                        "state": job.state.value,
                                        "coalesced": job.coalesced})

    def _attach(self, job: Job, fut: "asyncio.Future[Outcome]") -> None:
        """Resolve ``job`` from ``fut`` when the computation lands."""

        def _finish(f: "asyncio.Future[Outcome]") -> None:
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
            self._publish_state(job)
            if self.on_finished is not None:
                try:
                    self.on_finished(job)
                except Exception:
                    logger.exception("on_finished hook failed for job %s",
                                     job.id)

        fut.add_done_callback(_finish)
