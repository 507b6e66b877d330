"""Parallel execution layer for fault-simulation campaigns.

The paper's experiment grids are embarrassingly parallel — every
(design, generator, length) session and every 64-fault gate batch is
independent.  This package supplies the substrate:

* :mod:`~repro.parallel.pool` — starts worker pools and maps ordered,
  traced tasks over them, finishing in-process when a pool cannot
  start or breaks;
* :mod:`~repro.parallel.sweep` — design x generator coverage grids
  (the CLI's ``repro sweep`` / ``repro bench``);
* :mod:`~repro.parallel.gatework` — exact gate-level grading, one
  cone batch per worker task, in grading processes (the CLI's
  ``--jobs`` pool and the evaluation service's).
"""

from .gatework import GradingProcesses, gate_level_missed_parallel
from .pool import pool_map, resolve_jobs
from .sweep import (
    SweepResult,
    SweepTask,
    run_sweep,
)

__all__ = [
    "GradingProcesses",
    "SweepResult",
    "SweepTask",
    "gate_level_missed_parallel",
    "pool_map",
    "resolve_jobs",
    "run_sweep",
]
