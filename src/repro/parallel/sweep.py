"""Parallel design x generator coverage grids.

One :class:`SweepTask` names a session by content — design name,
generator key, vector count, generator width — so tasks pickle small
and every worker rebuilds exactly the session the parent would have
run.  Workers return bare detection-time arrays (a few hundred KB)
rather than full results; the parent reattaches its own
:class:`~repro.faultsim.dictionary.FaultUniverse` objects, keeping the
fan-out traffic flat in universe size.

With a cache directory, workers share the parent's content-addressed
store: the first process to grade a session publishes it, everyone
else — including every future run — loads it.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParallelError
from ..resolve import make_generator
from ..telemetry import get_telemetry, set_telemetry
from .pool import pool_map, resolve_jobs, start_pool

__all__ = ["SweepTask", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepTask:
    """One coverage session of a grid, identified by content.

    ``generator`` is any spelling :func:`~repro.resolve.make_generator`
    accepts; grids use the sweep keys (``LFSR-1`` ... ``Mixed``).
    """

    design: str
    generator: str
    n_vectors: int
    width: int = 12

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.design, self.generator, self.n_vectors)


@dataclass
class SweepResult:
    """What a worker ships back: the session's detection times."""

    task: SweepTask
    detect_time: np.ndarray
    fault_count: int


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker-process state installed by :func:`_init_sweep_worker`.
_WORKER_CTX: Dict[str, Any] = {}

#: Fork where the platform can, so workers inherit the warm context.
_START = ("fork" if "fork" in multiprocessing.get_all_start_methods()
          else "spawn")


def _init_sweep_worker(cache_dir: Optional[str],
                       max_bytes: Optional[int]) -> None:
    from ..experiments.config import ExperimentContext

    # A forked worker inherits the parent's collector, open sink files
    # included; its telemetry goes home only in task payloads.
    set_telemetry(None)
    cache = None
    if cache_dir is not None:
        from ..cache import ArtifactCache

        cache = ArtifactCache(cache_dir, max_bytes=max_bytes)
    ctx = ExperimentContext(cache=cache)
    # Under the fork start method the parent context (designs, universes,
    # netlists already materialized) rides into the child for free; adopt
    # its heavyweight artifacts but never its graded-session memo, so
    # workers always grade (or cache-load) their own sessions.
    parent = _WORKER_CTX.pop("parent", None)
    if parent is not None:
        ctx._designs = parent._designs
        ctx._universes = dict(parent._universes)
        ctx._netlists = dict(parent._netlists)
    _WORKER_CTX["ctx"] = ctx


def _grade(ctx, task: SweepTask) -> SweepResult:
    gen = make_generator(task.generator, task.width, task.n_vectors)
    result = ctx.coverage(task.design, gen, task.n_vectors)
    return SweepResult(task=task,
                       detect_time=np.asarray(result.detect_time,
                                              dtype=np.int64),
                       fault_count=result.universe.fault_count)


def _run_sweep_task(task: SweepTask) -> SweepResult:
    return _grade(_WORKER_CTX["ctx"], task)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_sweep(context, tasks: Sequence[SweepTask], *,
              jobs: Optional[int] = None) -> List:
    """Grade a grid of sessions, fanning out across ``jobs`` worker
    processes (:func:`~repro.parallel.pool.resolve_jobs`).

    ``context`` is the parent's
    :class:`~repro.experiments.config.ExperimentContext`; its designs
    and universes are materialized up front (so fork-started workers
    inherit them and the rehydrated results share the parent's universe
    objects), its cache configuration propagates to the workers, and
    every graded session lands in its memo table.  Sessions a pool
    cannot grade are graded here.  Returns
    :class:`~repro.faultsim.engine.CoverageResult` objects aligned with
    ``tasks``.
    """
    from ..faultsim.engine import coverage_from_detect_times

    tasks = list(tasks)
    for task in tasks:
        if task.design not in context.designs:
            raise ParallelError(f"unknown design {task.design!r}")
        context.universe(task.design)  # warm before forking

    cache = context.cache
    initargs = ((None, None) if cache is None
                else (cache.root, cache.max_bytes))
    n_jobs = resolve_jobs(jobs)
    tel = get_telemetry()
    with tel.span("parallel.sweep", tasks=len(tasks), jobs=n_jobs):
        _WORKER_CTX["parent"] = context  # inherited by fork-started workers
        try:
            pool = start_pool(min(n_jobs, len(tasks)), _START,
                              _init_sweep_worker, initargs)
        finally:
            _WORKER_CTX.pop("parent", None)
        try:
            raw = list(pool_map(pool, _run_sweep_task,
                                [(task,) for task in tasks],
                                functools.partial(_grade, context)))
        finally:
            if pool is not None:
                pool.shutdown()

    results = []
    for shipped in raw:
        task = shipped.task
        universe = context.universe(task.design)
        if shipped.fault_count != universe.fault_count:
            raise ParallelError(
                f"worker graded {shipped.fault_count} faults for "
                f"{task.design} but parent universe has "
                f"{universe.fault_count}")
        gen = make_generator(task.generator, task.width, task.n_vectors)
        result = coverage_from_detect_times(
            universe, shipped.detect_time, task.n_vectors,
            design_name=task.design, generator_name=gen.name)
        context.adopt_coverage(task.design, gen.name, task.n_vectors, result)
        results.append(result)
    return results
