"""Worker pool: drains the job queue into the evaluation pipeline.

A fixed set of asyncio worker tasks pull jobs off the
:class:`~repro.service.queue.JobQueue` one at a time, oldest first.
Each job gets its own :func:`execute_job` call — the only way the
service computes anything — on a thread-pool executor, so the event
loop (and therefore intake, polling and health endpoints) stays
responsive.  The call runs under the job's own trace and feeds the
job's own progress streams.  The shared
:class:`~repro.experiments.ExperimentContext` is cache-backed, so
artifacts persist across requests and restarts via :mod:`repro.cache`.

Nothing here forks: the executor threads share the process with the
event loop, and forking a threaded process can stall its BLAS threads
(see :mod:`repro.parallel.pool`).  ``grade-shard`` jobs grade their
cone batches in :class:`GradingProcesses`, a pool of worker processes
started with the ``spawn`` method: each worker is a fresh interpreter
launched by fork-and-exec in one call, with no server process, and the
service never calls ``os.fork``.

All results are bit-identical to calling the library directly — the
end-to-end suite asserts it.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.spectrum import generator_spectrum, power_db
from ..bist.selection import propose_scheme, rank_generators
from ..errors import ServiceError
from ..resolve import make_generator
from ..telemetry import TraceContext, child_collector, get_telemetry
from .jobs import Job, JobState, JobStore
from .queue import JobQueue, QueueClosedError

__all__ = ["GradingProcesses", "WorkerPool", "execute_job"]

logger = logging.getLogger("repro.service")

#: Outcome tuples shipped back from the executor: ("ok", result-dict)
#: or ("error", one-line message).
Outcome = Tuple[str, Any]


# ----------------------------------------------------------------------
# Synchronous evaluation (runs on executor threads)
# ----------------------------------------------------------------------
def execute_job(ctx, kind: str, params: Dict[str, Any],
                grading: Optional["GradingProcesses"] = None
                ) -> Dict[str, Any]:
    """Evaluate one request against the library — the reference path.

    The service's answers are, by construction, exactly what a direct
    library call returns: every job the service runs goes through here.
    ``grading`` is the service's :class:`GradingProcesses`; without it a
    ``grade-shard`` job grades in this process.
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
        return _grade_shard_job(ctx, params, grading)
    if kind == "recommend":
        from ..schedule import recommend_generator

        return recommend_generator(
            ctx, params["design"], vectors=params["vectors"],
            top_k=params["top_k"],
            confirm_vectors=params["confirm_vectors"],
            confirm_faults=params["confirm_faults"],
            bins=params["bins"])
    raise ServiceError(f"unknown job kind {kind!r}", status=400)


def _grade_shard_job(ctx, params: Dict[str, Any],
                     grading: Optional["GradingProcesses"]
                     ) -> Dict[str, Any]:
    from ..cluster.shards import grade_shard, prepared_problem

    if grading is not None:
        grading.start()  # the workers start while the problem builds
    outer = get_telemetry()
    # Every shard of a problem reads one prepared build; the lock
    # guards the build and its lookup.  Shards graded in worker
    # processes run side by side.  In-process grading holds the lock
    # throughout, and a broken pool's fallback takes it for each batch,
    # because the cone sweep holds the GIL and two threads grade slower
    # than one.
    with outer.span("service.grade_wait"):
        ctx.grading_lock.acquire()
    locked = True
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
        executor = (None if grading is None
                    else grading.batches(problem, ctx.grading_lock))
        if executor is not None:
            ctx.grading_lock.release()
            locked = False

        def grade() -> Dict[str, Any]:
            return grade_shard(
                problem.netlist, problem.stimulus, problem.faults,
                params["indices"], params["total"],
                misr_width=params["misr_width"],
                chunk=params["chunk"] or None,
                program=problem.program, net_waves=problem.golden,
                executor=executor)

        trace = params.get("trace")
        if trace is None:
            doc = grade()
        else:
            # A coordinator's shard runs under a *nested* child
            # collector joined to the coordinator's trace; its payload
            # rides home inside the result so a multi-node sweep grafts
            # into one span tree.  Progress is forwarded to the job's
            # collector so the job document (which the coordinator
            # polls) still updates live, and the metrics merge into it
            # too, so this service's /metrics counts the grading.
            def _forward(state) -> None:
                if outer.enabled:
                    outer.progress(state.name, state.done, state.total,
                                   **state.fields)

            ctx_trace = TraceContext(trace["trace_id"], trace.get("span_id"))
            with child_collector(ctx_trace, on_progress=_forward) as handle:
                doc = grade()
            doc["trace"] = handle.payload
            outer.absorb({"metrics": handle.payload["metrics"]})
    finally:
        if locked:
            ctx.grading_lock.release()
    doc.update({
        "design": params["design"],
        "generator": params["generator"],
        "vectors": params["vectors"],
        "width": params["width"],
        "total": params["total"],
        "misr_width": params["misr_width"],
    })
    return doc


def _execute_traced(ctx, kind: str, params: Dict[str, Any],
                    trace: Optional[TraceContext], on_progress=None,
                    grading: Optional["GradingProcesses"] = None
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
                outcome: Outcome = ("ok", execute_job(ctx, kind, params,
                                                      grading))
            except Exception as exc:  # job-level isolation
                logger.warning("job execution failed (%s %r): %s", kind,
                               params, exc)
                outcome = ("error", f"{type(exc).__name__}: {exc}")
    return outcome, handle.payload


# ----------------------------------------------------------------------
# Grading processes
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


class GradingProcesses:
    """The service's grading processes: one ``spawn`` pool of
    ``processes`` workers (:mod:`repro.parallel.gatework`).

    :meth:`start` starts it at the first ``grade-shard`` job, and a
    service that never grades starts no process.  With fewer than two
    processes there is no pool, and shards grade in-process.  A pool
    that cannot start is counted (``parallel.pool_failures``) and the
    job grades in-process; a pool that broke is dropped, and the next
    job starts a fresh one.  :meth:`close` joins the workers at drain,
    :meth:`terminate` kills them at an abort.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._bound = None
        self._closed = False

    def start(self) -> None:
        """Start the pool unless it runs (or the service is closing)."""
        from ..parallel import gatework

        if self.processes < 2:
            return
        with self._lock:
            if self._closed or self._pool is not None:
                return
            try:
                self._pool = gatework.grading_pool(self.processes)
            except (OSError, ValueError) as exc:
                logger.warning("cannot start grading processes (%s); "
                               "grading in-process", exc)
                tel = get_telemetry()
                if tel.enabled:
                    tel.counter("parallel.pool_failures").add(1)

    def batches(self, problem, lock):
        """A batch executor grading ``problem`` (a
        :class:`~repro.cluster.shards.PreparedProblem`) in the pool, or
        ``None`` when there is no pool.  Jobs of one problem share it,
        so the problem is pickled once per build.  If the pool breaks,
        the batches left grade in-process under ``lock``."""
        from ..parallel.gatework import PooledBatches

        with self._lock:
            pool, bound = self._pool, self._bound
            if pool is None:
                return None
            if bound is None or bound.pool is not pool \
                    or bound.token != problem.token:
                bound = self._bound = PooledBatches(
                    pool, problem.token, problem.program, problem.stimulus,
                    problem.golden, lock=lock, on_broken=self._discard)
            return bound

    def _close(self) -> Optional[ProcessPoolExecutor]:
        with self._lock:
            pool, self._pool, self._bound = self._pool, None, None
            self._closed = True
        return pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is pool:
                self._pool, self._bound = None, None
            closed = self._closed
        pool.shutdown(wait=False)
        if closed:
            raise ServiceError("service shut down before completion")

    def close(self) -> None:
        """Drain: stop taking work and join the workers."""
        pool = self._close()
        if pool is not None:
            pool.shutdown(wait=True)

    def terminate(self) -> None:
        """Abort: stop taking work and kill the workers."""
        from ..parallel.pool import terminate_workers

        pool = self._close()
        if pool is not None:
            terminate_workers(pool)
            pool.shutdown(wait=True, cancel_futures=True)


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
        #: Worker processes for ``grade-shard`` jobs, one per worker
        #: thread the CPUs can keep busy.
        self.grading = GradingProcesses(min(workers, usable_cpus()))
        self._tasks: List["asyncio.Task"] = []
        #: Jobs running on the executor right now.
        self.inflight = 0
        self.jobs_done = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        loop = asyncio.get_running_loop()
        for i in range(self.workers):
            self._tasks.append(
                loop.create_task(self._worker(i), name=f"repro-worker-{i}"))

    async def join(self) -> None:
        """Wait for every worker to finish draining (queue closed), then
        join the grading processes."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.grading.close()

    async def abort(self) -> None:
        """Deadline exceeded: kill the grading processes, cancel workers,
        fail whatever remains."""
        self.grading.terminate()
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
        """Run ``job`` on the executor and finish it with the outcome."""
        loop = asyncio.get_running_loop()
        job.state = JobState.RUNNING
        job.started = self.store.clock()
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

        self.inflight += 1
        try:
            outcome, payload = await loop.run_in_executor(
                self.executor, _execute_traced, self.context, job.kind,
                job.params, job.trace, _on_progress, self.grading)
        except Exception as exc:  # executor itself failed
            outcome, payload = ("error", f"{type(exc).__name__}: {exc}"), None
        finally:
            self.inflight -= 1
        tel = get_telemetry()
        if tel.enabled:
            tel.absorb(payload)
        if job.state.finished:
            return  # e.g. failed by an abort() race
        status, value = outcome
        now = self.store.clock()
        if status == "ok":
            job.finish(JobState.DONE, now, result=value)
            self.jobs_done += 1
        else:
            job.finish(JobState.FAILED, now, error=str(value))
            self.jobs_failed += 1
        self.queue.observe_service_seconds(now - job.started)
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

    def _publish_state(self, job: Job) -> None:
        if self.events is not None:
            self.events.publish("job", {"job": job.id, "kind": job.kind,
                                        "state": job.state.value})
