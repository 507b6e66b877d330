"""Parallel execution layer for fault-simulation campaigns.

The paper's experiment grids are embarrassingly parallel — every
(design, generator, length) session and every 64-fault gate batch is
independent.  This package supplies the substrate:

* :mod:`~repro.parallel.pool` — order-preserving process-pool map with
  chunked work queues, crash/timeout detection and automatic serial
  fallback;
* :mod:`~repro.parallel.sweep` — design x generator coverage grids
  (the CLI's ``repro sweep`` / ``repro bench``);
* :mod:`~repro.parallel.gatework` — exact gate-level grading, one
  cone batch per worker task (the CLI's ``--jobs`` pool and the
  evaluation service's grading processes).
"""

from .gatework import gate_level_missed_parallel
from .pool import default_chunk_size, parallel_map, resolve_jobs
from .sweep import (
    SweepResult,
    SweepTask,
    run_sweep,
)

__all__ = [
    "SweepResult",
    "SweepTask",
    "default_chunk_size",
    "gate_level_missed_parallel",
    "parallel_map",
    "resolve_jobs",
    "run_sweep",
]
