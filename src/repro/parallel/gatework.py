"""Exact gate-level grading in worker processes, one cone batch a task.

The iterative-deepening driver
(:func:`repro.gates.fault_parallel._grade_verdicts`) stays in the
dispatching process: it schedules each stage's cone batches, drops
detected faults and captures detection times.  A
:class:`PooledBatches` executor grades a stage's batches in a pool of
worker processes, one task per batch: the batch's fault lines, its
stage length, the chunk and the token of its problem.  The batches are
the serial run's, so verdicts, chunk-end detection times, MISR
signatures and every work counter are the same for any process count.

Each worker holds one problem: the compiled program, fused view
included, and golden, which the worker re-simulates from the program
and the stimulus.  Every task carries the problem's token and the
program and stimulus, pickled once per problem build in the
dispatching process; a worker unpickles them only when the token is
not the one it holds, so at most once per build.  The token is minted
per build, so a rebuilt or replaced problem is never taken for a stale
one.

:func:`grading_pool` starts the workers with the ``spawn`` method, in
two places: the evaluation service starts a pool at its first
``grade-shard`` job (:class:`repro.service.workers.GradingProcesses`),
and :func:`gate_level_missed_parallel` (``repro profile --exact --jobs
N``) owns one for a call.  The service is threaded, and a fork could
stall BLAS on another thread; ``spawn`` starts each worker with a
fresh interpreter, and no server process.  This module imports no
``scipy``, so a worker is ready in a fraction of a second.

Every worker exits as soon as the process that started it dies, so a
killed parent leaves no worker behind.  A worker that dies breaks its
pool: the batches it left are graded in the dispatching process
(``parallel.fallbacks``).

With telemetry on, each batch's ``gates.fault_batch`` span is recorded
in the process that grades it and merged back under the dispatching
span, and every batch graded in a worker counts as
``gates.batches_pooled``.  The per-batch work counters, the
``gates.grade`` progress stream and the throughput gauge stay with the
driver.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import uuid
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Sequence)

import numpy as np

from ..gates.compiled import ConeWorkspace, golden_net_waves
from ..gates.fault_parallel import (BatchResult, gate_level_missed,
                                    grade_batch, program_and_golden)
from ..gates.faults import FaultLines
from ..gates.gatesim import pack_input_bits
from ..telemetry import TraceContext, child_collector, get_telemetry
from .pool import resolve_jobs

__all__ = ["PooledBatches", "gate_level_missed_parallel", "grading_pool",
           "run_batch"]

logger = logging.getLogger(__name__)

#: The one problem this worker process holds: its ``token``,
#: ``program``, ``golden`` and cone workspace ``ws``.
_HELD: Dict[str, Any] = {}


def _exit_with_parent() -> None:
    """Exit once the parent dies: its sentinel turns readable then."""
    parent = multiprocessing.parent_process()
    if parent is not None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)


def _init_worker() -> None:
    """Worker start: exit as soon as the parent dies."""
    threading.Thread(target=_exit_with_parent, name="repro-parent-watch",
                     daemon=True).start()


def _ready() -> int:
    return os.getpid()


def run_batch(lines: FaultLines, token: str, length: int, chunk: int,
              times: bool, trace: Optional[TraceContext], problem: bytes):
    """Worker side: grade one cone batch of problem ``token``.

    ``problem`` is the pickled program and stimulus; it is unpickled
    only when this worker holds another problem.  Returns the
    :data:`~repro.gates.fault_parallel.BatchResult` and the telemetry
    payload of the batch's span.
    """
    if _HELD.get("token") != token:
        _HELD.clear()  # free the old golden before building the new one
        program, stimulus = pickle.loads(problem)
        golden = golden_net_waves(
            program, pack_input_bits(stimulus, len(program.input_bits)))
        _HELD.update(token=token, program=program, golden=golden,
                     ws=ConeWorkspace())
    with child_collector(trace) as handle:
        result = grade_batch(_HELD["program"], _HELD["golden"], lines,
                             length, chunk, _HELD["ws"], times)
    return result, handle.payload


def grading_pool(processes: int) -> ProcessPoolExecutor:
    """A ``spawn`` pool of ``processes`` grading workers, started now."""
    pool = ProcessPoolExecutor(
        max_workers=processes,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker)
    # A spawn pool starts a worker per submit that finds none idle, so
    # this starts them all now instead of when the first batches wait.
    for _ in range(processes):
        pool.submit(_ready)
    return pool


def _answer(future: Optional[Future]):
    """A task's :func:`run_batch` answer, or ``None`` when the task was
    never sent or its pool broke."""
    if future is None:
        return None
    try:
        return future.result()
    except BrokenExecutor:
        return None


class PooledBatches:
    """Batch executor: grades one problem's cone batches in a grading
    pool.

    ``token``, ``program``, ``stimulus`` and ``golden`` are the
    problem's; the program and stimulus are pickled once, here, and
    sent with every task.  Once the pool is broken, batches are graded
    in this process, each under ``lock``, so two threads never grade at
    once; ``on_broken(pool)`` runs before each stage of them, and may
    raise to refuse.  One instance may serve several threads at once.
    """

    def __init__(self, pool: ProcessPoolExecutor, token: str, program,
                 stimulus: np.ndarray, golden: np.ndarray, *,
                 lock: Optional[ContextManager] = None,
                 on_broken: Optional[Callable[[ProcessPoolExecutor],
                                              None]] = None):
        self.pool = pool
        self.token = token
        self.program = program
        self.golden = golden
        self.problem = pickle.dumps(
            (program, np.asarray(stimulus, dtype=np.int64)),
            protocol=pickle.HIGHEST_PROTOCOL)
        self.lock = contextlib.nullcontext() if lock is None else lock
        self.on_broken = on_broken
        self._broken = False

    def _submit(self, lines: FaultLines, task: tuple) -> Optional[Future]:
        try:
            return self.pool.submit(run_batch, lines, *task)
        except (BrokenExecutor, RuntimeError):  # broken or shut down
            return None

    def _fallback(self, batches: Sequence[FaultLines], length: int,
                  chunk: int, times: bool) -> Iterator[BatchResult]:
        if not self._broken:
            self._broken = True
            logger.warning("grading pool broke; grading its %d unfinished "
                           "batches in-process", len(batches))
            tel = get_telemetry()
            if tel.enabled:
                tel.counter("parallel.fallbacks").add(1)
        if self.on_broken is not None:
            self.on_broken(self.pool)
        ws = ConeWorkspace()
        for lines in batches:
            with self.lock:  # never held across a yield
                result = grade_batch(self.program, self.golden, lines,
                                     length, chunk, ws, times)
            yield result

    def grade_stage(self, batches: Sequence[FaultLines], length: int,
                    chunk: int, times: bool) -> Iterator[BatchResult]:
        if self._broken:
            yield from self._fallback(batches, length, chunk, times)
            return
        tel = get_telemetry()
        # Captured under the driver's span, so batch spans merge there.
        task = (self.token, length, chunk, times, TraceContext.current(),
                self.problem)
        futures = [self._submit(lines, task) for lines in batches]
        try:
            for k, future in enumerate(futures):
                out = _answer(future)
                if out is None:
                    yield from self._fallback(batches[k:], length, chunk,
                                              times)
                    return
                result, payload = out
                if tel.enabled:
                    tel.absorb(payload)
                    tel.counter("gates.batches_pooled").add(1)
                yield result
        finally:
            for future in futures:
                if future is not None:
                    future.cancel()


def gate_level_missed_parallel(
    nl,
    input_raw: Sequence[int],
    faults: Sequence,
    *,
    jobs: Optional[int] = None,
) -> List:
    """Exact missed-fault list, each cone batch graded in one of
    ``jobs`` worker processes.

    Drop-in parallel counterpart of
    :func:`repro.gates.fault_parallel.gate_level_missed`, with the same
    batches, verdicts and counters.  The workers start first, so they
    boot while the program and golden are built here.  A pool that
    cannot start grades in-process (``parallel.pool_failures``).  A
    script that calls this needs an ``if __name__ == "__main__":``
    guard, because a ``spawn`` worker re-imports the main script (and
    runs its top-level imports again; ``python -m repro`` is exempt).
    """
    tel = get_telemetry()
    raw = np.asarray(input_raw, dtype=np.int64)
    with tel.span("gates.fault_parallel_pool", faults=len(faults),
                  vectors=len(raw), jobs=jobs):
        n_jobs = resolve_jobs(jobs)
        pool: Optional[ProcessPoolExecutor] = None
        if n_jobs > 1:
            try:
                pool = grading_pool(n_jobs)
            except (OSError, ValueError) as exc:
                logger.warning("cannot start grading processes (%s); "
                               "grading in-process", exc)
                if tel.enabled:
                    tel.counter("parallel.pool_failures").add(1)
        try:
            program, golden = program_and_golden(nl, raw)
            executor = None if pool is None else PooledBatches(
                pool, uuid.uuid4().hex, program, raw, golden)
            return gate_level_missed(nl, raw, faults, program=program,
                                     net_waves=golden, executor=executor)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
