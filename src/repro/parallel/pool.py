"""Process-pool fan-out with chunked queues and serial fallback.

:func:`parallel_map` is the execution primitive every fan-out in this
package goes through.  Contract:

* **Order-preserving** — results align with the input items regardless
  of completion order.
* **Deterministic** — workers receive only the task items, so a task's
  result is a pure function of its item, never of worker identity or
  completion order.
* **Self-healing** — a worker crash (``BrokenProcessPool``), a chunk
  timeout, or a pool that cannot even start (sandboxed environments)
  degrades to in-process serial execution of the unfinished chunks
  instead of failing the run.  Ordinary exceptions raised by the task
  function are *not* swallowed; they propagate to the caller.

The pool prefers the ``fork`` start method where available so workers
inherit warm per-process caches (reference designs, cell-variant
tables); elsewhere it falls back to the platform default.

Because it forks, :func:`parallel_map` must only be called from a
single-threaded process, such as the ``repro sweep`` and ``repro bench``
commands.  A fork copies only the calling thread, and OpenBLAS's fork
handler then waits on BLAS worker threads: if another thread of the
parent is inside a BLAS call (a NumPy matrix product), that call can
stall for good.  The evaluation service runs jobs on executor threads
and therefore never calls this; a pool owned by a threaded process
must use the ``forkserver`` or ``spawn`` start method instead.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ParallelError
from ..telemetry import TraceContext, child_collector, get_telemetry, set_telemetry

__all__ = ["parallel_map", "resolve_jobs", "default_chunk_size"]

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Chunks per worker the default chunking aims for; >1 smooths load
#: imbalance, small enough to keep per-chunk pickling overhead low.
_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``$REPRO_JOBS`` > CPU count.

    ``0`` (or ``None``) means "auto"; the result is always >= 1, where
    ``1`` selects the in-process serial path.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ParallelError(f"REPRO_JOBS must be an integer, "
                                    f"got {env!r}")
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0, got {jobs}")
    return jobs


def default_chunk_size(n_items: int, n_jobs: int) -> int:
    """Chunk items so each worker sees a handful of chunks."""
    return max(1, -(-n_items // (n_jobs * _CHUNKS_PER_WORKER)))


def _mp_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _pool_initializer(initializer: Optional[Callable],
                      initargs: Sequence) -> None:
    """Worker bootstrap wrapped around the caller's initializer.

    Under the ``fork`` start method workers inherit the parent's
    process-global collector — including open sink file handles.  Clear
    it first so worker telemetry flows only through the per-chunk child
    collectors and never writes into the parent's sinks.
    """
    set_telemetry(None)
    if initializer is not None:
        initializer(*initargs)


def _run_chunk(fn: Callable, chunk: Sequence,
               trace: Optional[TraceContext] = None
               ) -> Tuple[List, Optional[Dict[str, object]]]:
    """Top-level (hence picklable) chunk runner executed in workers.

    When the dispatching process traced the fan-out, ``trace`` names the
    span this chunk belongs under; the chunk then runs inside a child
    collector and the second element of the return value is the
    merge-ready telemetry payload (``None`` when telemetry is off).
    """
    with child_collector(trace) as handle:
        results = [fn(item) for item in chunk]
    return results, handle.payload


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Hard-stop worker processes so shutdown cannot block on a hang."""
    for proc in list(getattr(executor, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - racing process exit
            pass


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    chunk_size: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
    serial_fallback: Optional[Callable[[Sequence[T]], List[R]]] = None,
    label: str = "parallel.map",
) -> List[R]:
    """Map ``fn`` over ``items`` across a process pool; ordered results.

    ``fn`` (and ``initializer``) must be picklable module-level
    callables.  ``timeout`` bounds each wait on an outstanding chunk;
    on timeout or worker crash the unfinished chunks run serially in
    the parent via ``serial_fallback`` (default: plain ``fn`` calls).
    """
    items = list(items)
    n_jobs = resolve_jobs(jobs)

    def _default_fallback(chunk: Sequence[T]) -> List[R]:
        return [fn(item) for item in chunk]

    fallback = serial_fallback or _default_fallback
    tel = get_telemetry()
    with tel.span(label, tasks=len(items), jobs=n_jobs):
        if not items:
            return []
        if n_jobs <= 1 or len(items) == 1:
            return fallback(items)
        if chunk_size is None:
            chunk_size = default_chunk_size(len(items), n_jobs)
        chunks = [items[i:i + chunk_size]
                  for i in range(0, len(items), chunk_size)]
        results: List[Optional[List[R]]] = [None] * len(chunks)
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(n_jobs, len(chunks)),
                mp_context=_mp_context(),
                initializer=_pool_initializer,
                initargs=(initializer, tuple(initargs)),
            )
        except (OSError, ValueError, PermissionError) as exc:
            logger.warning("%s: cannot start process pool (%s); "
                           "running serially", label, exc)
            if tel.enabled:
                tel.counter("parallel.pool_failures").add(1)
            return fallback(items)

        # Captured while the dispatching span above is open, so worker
        # chunk spans merge back as its children — one tree end to end.
        trace = TraceContext.current()
        degraded: Optional[str] = None
        try:
            futures = {executor.submit(_run_chunk, fn, chunk, trace): idx
                       for idx, chunk in enumerate(chunks)}
            for future, idx in futures.items():
                try:
                    chunk_out, payload = future.result(timeout=timeout)
                except FutureTimeoutError:
                    degraded = f"chunk timed out after {timeout:.1f}s"
                    _terminate_workers(executor)
                    break
                except BrokenExecutor as exc:
                    degraded = f"worker pool broke: {exc or 'worker died'}"
                    break
                results[idx] = chunk_out
                if tel.enabled:
                    tel.absorb(payload)
        finally:
            # A broken pool (or one whose workers were just terminated)
            # fails its pending futures on its own manager thread, which
            # on Python 3.11 dies if one of them was cancelled meanwhile:
            # only a map that raised cancels what is left.
            executor.shutdown(wait=degraded is None,
                              cancel_futures=degraded is None)

        if degraded is not None:
            unfinished = [idx for idx, r in enumerate(results) if r is None]
            logger.warning("%s: %s; running %d/%d chunks serially",
                           label, degraded, len(unfinished), len(chunks))
            if tel.enabled:
                tel.counter("parallel.fallbacks").add(1)
                tel.counter("parallel.fallback_chunks").add(len(unfinished))
            for idx in unfinished:
                results[idx] = fallback(chunks[idx])
        if tel.enabled:
            tel.counter("parallel.tasks").add(len(items))
            tel.counter("parallel.chunks").add(len(chunks))

        out: List[R] = []
        for chunk_result in results:
            assert chunk_result is not None
            out.extend(chunk_result)
        return out
