"""One way to run tasks in worker processes, and to start the workers.

Every fan-out of this package — the sweep's design x generator
sessions and exact grading's cone batches — is a list of independent
tasks whose answers the dispatching process consumes in order.
:func:`pool_map` runs such a list over a process pool:

* **Ordered** — answers come back in task order, whatever order the
  workers finish in.
* **Traced** — each task runs in a child collector joined to the
  caller's current span, and its spans and metric deltas merge back
  there, so a pooled run records one span tree.
* **Self-healing** — once the pool breaks (a worker died) or refuses a
  submit, that task and every later one run through the caller's
  in-process function, with the same answers; the fallback is counted
  once as ``parallel.fallbacks``.  A task that raises is not a pool
  failure: the error propagates and the tasks not yet started are
  cancelled.

:func:`start_pool` starts the workers.  A pool of fewer than two
processes is no pool, and a platform that refuses to start processes
(a sandbox) is logged and counted as ``parallel.pool_failures``; either
way the caller gets ``None``, and :func:`pool_map` runs every task
in-process.

The sweep forks its workers so that they inherit the warm designs and
universes of the dispatching process.  A fork copies only the calling
thread, and OpenBLAS's fork handler then waits on BLAS worker threads:
if another thread of the parent is inside a BLAS call, that call can
stall for good.  So only single-threaded processes (``repro sweep`` and
``repro bench``) fork; the evaluation service runs jobs on executor
threads and grades in ``spawn`` workers (:mod:`repro.parallel.gatework`).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from ..errors import ParallelError
from ..telemetry import TraceContext, child_collector, get_telemetry

__all__ = ["pool_map", "resolve_jobs", "start_pool", "usable_cpus"]

logger = logging.getLogger(__name__)

R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``0`` (or ``None``) means one per usable CPU.

    The result is always >= 1, where ``1`` runs in-process.
    """
    if not jobs:
        return usable_cpus()
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0, got {jobs}")
    return jobs


def start_pool(processes: int, method: str, initializer: Callable,
               initargs: tuple = ()) -> Optional[ProcessPoolExecutor]:
    """A pool of ``processes`` workers started by ``method``
    (``"fork"``, ``"spawn"``), each running ``initializer(*initargs)``
    first; every worker starts now.

    ``None`` with fewer than two processes, or when the platform
    refuses to start them (``parallel.pool_failures``).
    """
    if processes < 2:
        return None
    try:
        pool = ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context(method),
            initializer=initializer, initargs=initargs)
        # A spawn pool starts a worker per submit that finds none idle,
        # so this starts them all now instead of when the first tasks
        # wait.
        for _ in range(processes):
            pool.submit(os.getpid)
    except (OSError, ValueError) as exc:
        logger.warning("cannot start %d worker processes (%s); running "
                       "in-process", processes, exc)
        get_telemetry().counter("parallel.pool_failures").add(1)
        return None
    return pool


def _traced(fn: Callable, trace: Optional[TraceContext], *args):
    """Worker side: ``fn(*args)`` in a child collector joined to
    ``trace``; returns the answer and the telemetry payload (``None``
    when the dispatcher traced nothing)."""
    with child_collector(trace) as handle:
        answer = fn(*args)
    return answer, handle.payload


def pool_map(pool: Optional[ProcessPoolExecutor], fn: Callable[..., R],
             tasks: Sequence[tuple],
             fallback: Callable[..., R]) -> Iterator[R]:
    """Yield ``fn(*task)`` for each task, in order, computed in
    ``pool``.

    ``fn`` must be a picklable module-level function.  Tasks given a
    pool count as ``parallel.tasks``.  Once ``pool`` breaks or refuses
    a submit, that task and every later one yield
    ``fallback(*task)``, computed here; with no pool, every task does.
    No future is cancelled after a break: a broken pool fails its
    pending futures on its own manager thread, which on Python 3.11
    dies if one of them was cancelled meanwhile.  A task that raises
    propagates, and the other futures are cancelled.
    """
    tel = get_telemetry()
    # Captured under the caller's span, so worker spans merge there.
    trace = TraceContext.current()
    futures: List[Future] = []
    if pool is not None:
        tel.counter("parallel.tasks").add(len(tasks))
        try:
            for task in tasks:
                futures.append(pool.submit(_traced, fn, trace, *task))
        except RuntimeError:  # a broken or shut-down pool refuses
            pass
    broken = pool is not None and len(futures) < len(tasks)
    answered = 0
    try:
        for future in futures:
            try:
                answer, payload = future.result()
            except BrokenExecutor:
                broken = True
                break
            tel.absorb(payload)
            answered += 1
            yield answer
    finally:
        if not broken:
            for future in futures:
                future.cancel()
    if broken:
        logger.warning("worker pool broke; running %d of %d tasks "
                       "in-process", len(tasks) - answered, len(tasks))
        tel.counter("parallel.fallbacks").add(1)
    for task in tasks[answered:]:
        yield fallback(*task)
