"""Distributed exact gate-level fault grading.

A full-universe grade is thousands of independent cone passes over one
shared netlist and input sequence.  This module fans fixed-size slices
of the cone-aware schedule out across the process pool: the (netlist,
inputs, scheduled faults) payload ships once per worker through the
pool initializer, tasks are bare slice offsets, and verdicts come back
as tiny boolean arrays.  Each worker compiles the netlist program and
simulates the golden machine once, lazily, on its first slice, then
grades every slice with the same iterative-deepening verdict loop as
:func:`repro.gates.fault_parallel.gate_level_missed`; faults are
pre-ordered by :func:`repro.gates.faults.schedule_fault_batches` so
every slice's union fanout cone stays small.

A worker crash or timeout falls back to the parent-side serial loop,
so the result is always the exact missed-fault list.

When telemetry is enabled the pool propagates the trace into each
worker (see :mod:`repro.telemetry.propagate`): the ``gates.fault_batch``
spans a worker's verdict loop emits merge back under the dispatching
``gates.fault_pool`` span, so pooled and serial-fallback runs produce
identically shaped span trees — the only difference is the ``pid`` on
the batch spans.  Only the parent publishes the ``gates.grade``
progress stream and the ``gates.faults_per_sec`` gauge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..gates.fault_parallel import (DEFAULT_WORDS, _grade_verdicts,
                                    program_and_golden)
from ..gates.faults import GateFaultTable, schedule_fault_batches
from ..gates.netlist import GateNetlist
from ..telemetry import get_telemetry
from .pool import parallel_map

__all__ = ["gate_level_missed_parallel"]

#: One task grades this many faults (one cone pass per deepening stage).
BATCH = 64 * DEFAULT_WORDS

#: Per-worker payload installed by :func:`_init_gate_worker`.
_GATE_STATE: Dict[str, Any] = {}


def _init_gate_worker(nl: GateNetlist, raw: np.ndarray,
                      faults: GateFaultTable) -> None:
    _GATE_STATE["payload"] = (nl, raw, faults)
    _GATE_STATE.pop("compiled", None)


def _grade_batch(start: int) -> np.ndarray:
    nl, raw, faults = _GATE_STATE["payload"]
    state = _GATE_STATE.get("compiled")
    if state is None:
        state = _GATE_STATE["compiled"] = program_and_golden(nl, raw)
    prog, golden = state
    return _grade_verdicts(prog, golden, faults[start:start + BATCH])


def gate_level_missed_parallel(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence,
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List:
    """Exact missed-fault list, fixed-size fault slices fanned across
    workers.

    Drop-in parallel counterpart of
    :func:`repro.gates.fault_parallel.gate_level_missed`; identical
    verdicts, ``ceil(F / BATCH)`` independent tasks.
    """
    table = GateFaultTable.of(faults)
    tel = get_telemetry()
    with tel.span("gates.fault_parallel_pool", faults=len(table),
                  vectors=len(input_raw), jobs=jobs) as span:
        raw = np.asarray(input_raw, dtype=np.int64)
        # Cone-aware schedule: grade in locality order, then scatter the
        # verdicts back so results are independent of the schedule.
        batches = schedule_fault_batches(table, BATCH)
        order = (np.concatenate(batches) if batches
                 else np.zeros(0, dtype=np.int64))
        scheduled = table[order]
        starts = list(range(0, len(scheduled), BATCH))

        def _serial(chunk: Sequence[int]) -> List[np.ndarray]:
            prog, golden = program_and_golden(nl, raw)
            return [_grade_verdicts(prog, golden,
                                    scheduled[start:start + BATCH])
                    for start in chunk]

        verdict_blocks = parallel_map(
            _grade_batch, starts, jobs=jobs, timeout=timeout,
            initializer=_init_gate_worker,
            initargs=(nl, raw, scheduled),
            serial_fallback=_serial, label="gates.fault_pool")

        verdicts = np.zeros(len(table), dtype=bool)
        done = 0
        for start, block in zip(starts, verdict_blocks):
            batch_idx = order[start:start + BATCH]
            verdicts[batch_idx] = block
            done += len(batch_idx)
            if tel.enabled:
                tel.progress("gates.grade", done, len(table),
                             detected=int(verdicts.sum()),
                             coverage=float(verdicts.sum())
                             / max(1, len(table)))
        missed = [faults[i] for i in np.flatnonzero(~verdicts).tolist()]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(len(table) / span.duration)
    return missed
