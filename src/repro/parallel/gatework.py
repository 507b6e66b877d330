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

Each worker holds one problem: the compiled program, fused table
included, and golden, which the worker re-simulates from the program
and the stimulus.  Every task carries the problem's token and the
program and stimulus, pickled once per problem build in the
dispatching process; both are plain arrays, so pickling and
unpickling take milliseconds.  A worker unpickles them only when the
token is not the one it holds, so at most once per build.  The token is minted
per build, so a rebuilt or replaced problem is never taken for a stale
one.

:class:`GradingProcesses` owns the workers, started with the ``spawn``
method, in two places: the evaluation service starts its pool at its
first ``grade-shard`` job, and :func:`gate_level_missed_parallel`
(``repro profile --exact --jobs N``) starts one for a call.  The
service is threaded, and a fork could stall BLAS on another thread;
``spawn`` starts each worker with a fresh interpreter, and no server
process.  This module imports no ``scipy``, so a worker is ready in a
fraction of a second.

Every worker exits as soon as the process that started it dies, so a
killed parent leaves no worker behind.  Batches go to the workers
through :func:`~repro.parallel.pool.pool_map`: a worker that dies
breaks its pool, and the batches it left are graded in the dispatching
process (``parallel.fallbacks``).

With telemetry on, each batch's ``gates.fault_batch`` span is recorded
in the process that grades it and merged back under the dispatching
span, and every batch graded in a worker counts as
``gates.batches_pooled``.  The per-batch work counters, the
``gates.grade`` progress stream and the throughput gauge stay with the
driver.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import uuid
from concurrent.futures import ProcessPoolExecutor
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Sequence)

import numpy as np

from ..errors import ParallelError
from ..gates.compiled import ConeWorkspace, golden_net_waves
from ..gates.fault_parallel import (BatchResult, gate_level_missed,
                                    grade_batch, program_and_golden)
from ..gates.faults import FaultLines
from ..gates.gatesim import pack_input_bits
from ..telemetry import get_telemetry
from .pool import pool_map, resolve_jobs, start_pool

__all__ = ["GradingProcesses", "PooledBatches", "gate_level_missed_parallel",
           "run_batch"]

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


def run_batch(lines: FaultLines, length: int, chunk: int, times: bool,
              token: str, problem: bytes) -> BatchResult:
    """Worker side: grade one cone batch of problem ``token``.

    ``problem`` is the pickled program and stimulus; it is unpickled
    only when this worker holds another problem.
    """
    if _HELD.get("token") != token:
        _HELD.clear()  # free the old golden before building the new one
        program, stimulus = pickle.loads(problem)
        golden = golden_net_waves(
            program, pack_input_bits(stimulus, len(program.input_bits)))
        _HELD.update(token=token, program=program, golden=golden,
                     ws=ConeWorkspace())
    get_telemetry().counter("gates.batches_pooled").add(1)
    return grade_batch(_HELD["program"], _HELD["golden"], lines, length,
                       chunk, _HELD["ws"], times)


class PooledBatches:
    """Batch executor: grades one problem's cone batches in a grading
    pool, one :func:`run_batch` task a batch.

    ``token``, ``program``, ``stimulus`` and ``golden`` are the
    problem's; the program and stimulus are pickled once, here, and
    sent with every task.  Once the pool is broken, batches are graded
    in this process, each under ``lock``, so two threads never grade at
    once; ``on_broken(pool)`` runs before each of them, and may raise
    to refuse.  One instance may serve several threads at once.
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
        self._ws = ConeWorkspace()

    def _grade_here(self, lines: FaultLines, length: int, chunk: int,
                    times: bool, *_problem) -> BatchResult:
        self._broken = True
        if self.on_broken is not None:
            self.on_broken(self.pool)
        with self.lock:
            return grade_batch(self.program, self.golden, lines, length,
                               chunk, self._ws, times)

    def grade_stage(self, batches: Sequence[FaultLines], length: int,
                    chunk: int, times: bool) -> Iterator[BatchResult]:
        return pool_map(
            None if self._broken else self.pool, run_batch,
            [(lines, length, chunk, times, self.token, self.problem)
             for lines in batches], self._grade_here)


class GradingProcesses:
    """The one owner of grading processes: a ``spawn`` pool of
    ``processes`` workers, started on demand and bound to one problem
    at a time.

    :meth:`start` starts the pool unless it runs; with fewer than two
    processes, or when the platform refuses to start them, there is no
    pool and batches grade in-process.  :meth:`batches` binds the pool
    to a problem.  A pool that broke is dropped, and the next
    :meth:`start` starts a fresh one.  :meth:`close` joins the workers
    (a service's drain), :meth:`terminate` kills them (its abort).
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._bound: Optional[PooledBatches] = None
        self._closed = False

    def start(self) -> None:
        """Start the pool unless it runs (or this owner is closed)."""
        with self._lock:
            if not self._closed and self._pool is None:
                self._pool = start_pool(self.processes, "spawn",
                                        _init_worker)

    def batches(self, token: str, program, stimulus: np.ndarray,
                golden: np.ndarray, lock: Optional[ContextManager] = None
                ) -> Optional[PooledBatches]:
        """A batch executor grading problem ``token`` in the pool, or
        ``None`` when there is no pool.  Calls for one token share it,
        so the problem is pickled once per build.  If the pool breaks,
        the batches left grade in-process under ``lock``."""
        with self._lock:
            if self._pool is None:
                return None
            if self._bound is None or self._bound.token != token:
                self._bound = PooledBatches(
                    self._pool, token, program, stimulus, golden,
                    lock=lock, on_broken=self._discard)
            return self._bound

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
            raise ParallelError("grading processes closed before the "
                                "grade finished")

    def close(self) -> None:
        """Stop taking work and join the workers."""
        pool = self._close()
        if pool is not None:
            pool.shutdown(wait=True)

    def terminate(self) -> None:
        """Stop taking work and kill the workers."""
        pool = self._close()
        if pool is not None:
            for proc in list((pool._processes or {}).values()):
                proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)


def gate_level_missed_parallel(
    nl,
    input_raw: Sequence[int],
    faults: Sequence,
    *,
    jobs: Optional[int] = None,
) -> List:
    """Exact missed-fault list, each cone batch graded in one of
    ``jobs`` worker processes (:func:`~repro.parallel.pool.resolve_jobs`).

    Drop-in parallel counterpart of
    :func:`repro.gates.fault_parallel.gate_level_missed`, with the same
    batches, verdicts and counters.  The workers start first, so they
    boot while the program and golden are built here.  A script that
    calls this needs an ``if __name__ == "__main__":`` guard, because a
    ``spawn`` worker re-imports the main script (and runs its top-level
    imports again; ``python -m repro`` is exempt).
    """
    tel = get_telemetry()
    raw = np.asarray(input_raw, dtype=np.int64)
    with tel.span("gates.fault_parallel_pool", faults=len(faults),
                  vectors=len(raw), jobs=jobs):
        grading = GradingProcesses(resolve_jobs(jobs))
        grading.start()
        try:
            program, golden = program_and_golden(nl, raw)
            return gate_level_missed(
                nl, raw, faults, program=program, net_waves=golden,
                executor=grading.batches(uuid.uuid4().hex, program, raw,
                                         golden))
        finally:
            grading.close()
