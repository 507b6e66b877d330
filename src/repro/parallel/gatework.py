"""Distributed exact gate-level fault grading.

A full-universe grade is thousands of independent cone passes over one
shared netlist and input sequence.  This module packs the cone-aware
schedule into one shard of whole cone batches per worker
(:func:`repro.cluster.shards.plan_shards`, the packer the service and
the cluster use) and fans the shards out across the process pool: the
(netlist, inputs, faults) payload ships once per worker through the
pool initializer, tasks are shard index lists, and verdicts come back
as boolean arrays.  Each worker compiles the netlist program and
simulates the golden machine once, lazily, then grades its shard with
the same iterative-deepening verdict loop as
:func:`repro.gates.fault_parallel.gate_level_missed` — so a shard's
first stage grades the serial driver's wide cone batches, not slices of
them.

A pool that cannot start or a worker that dies falls back to the
parent-side serial loop, so the result is always the exact missed-fault
list.

When telemetry is enabled the pool propagates the trace into each
worker (see :mod:`repro.telemetry.propagate`): the ``gates.fault_batch``
spans a worker's verdict loop emits merge back under the dispatching
``gates.fault_pool`` span, so pooled and serial-fallback runs produce
identically shaped span trees — the only difference is the ``pid`` on
the batch spans.  Only the parent publishes the ``gates.grade``
progress stream, the ``gates.faults_per_sec`` gauge and, once per run,
the ``gates.lut_fused_levels`` counter of the program the shards were
graded with.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gates.eventsim import fused_program
from ..gates.fault_parallel import _grade_verdicts, program_and_golden
from ..gates.faults import GateFaultTable
from ..gates.netlist import GateNetlist
from ..telemetry import get_telemetry
from .pool import parallel_map, resolve_jobs

__all__ = ["gate_level_missed_parallel"]

#: Per-worker payload installed by :func:`_init_gate_worker`.
_GATE_STATE: Dict[str, Any] = {}


def _init_gate_worker(nl: GateNetlist, raw: np.ndarray,
                      faults: GateFaultTable) -> None:
    _GATE_STATE["payload"] = (nl, raw, faults)
    _GATE_STATE.pop("compiled", None)


def _grade(prog, golden: np.ndarray, faults: GateFaultTable,
           indices: Sequence[int]) -> Tuple[np.ndarray, int]:
    """One shard's verdicts and the program's fused level count."""
    verdicts = _grade_verdicts(prog, golden,
                               faults[np.asarray(indices, dtype=np.int64)])
    return verdicts, fused_program(prog).stats["levels_fused"]


def _grade_shard(indices: Sequence[int]) -> Tuple[np.ndarray, int]:
    nl, raw, faults = _GATE_STATE["payload"]
    state = _GATE_STATE.get("compiled")
    if state is None:
        state = _GATE_STATE["compiled"] = program_and_golden(nl, raw)
    return _grade(*state, faults, indices)


def gate_level_missed_parallel(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence,
    *,
    jobs: Optional[int] = None,
) -> List:
    """Exact missed-fault list, one shard of whole cone batches per
    worker.

    Drop-in parallel counterpart of
    :func:`repro.gates.fault_parallel.gate_level_missed`; identical
    verdicts, about ``jobs`` independent tasks of at most
    ``ceil(F / jobs)`` faults each.
    """
    # Imported here: repro.cluster loads the service client, which the
    # process pool has no other use for.
    from ..cluster.shards import plan_shards

    table = GateFaultTable.of(faults)
    tel = get_telemetry()
    with tel.span("gates.fault_parallel_pool", faults=len(table),
                  vectors=len(input_raw), jobs=jobs) as span:
        raw = np.asarray(input_raw, dtype=np.int64)
        n_jobs = resolve_jobs(jobs)
        shards = [shard.indices for shard in plan_shards(
            table, max_faults=max(1, -(-len(table) // n_jobs)))]

        def _serial(chunk: Sequence[Sequence[int]]
                    ) -> List[Tuple[np.ndarray, int]]:
            prog, golden = program_and_golden(nl, raw)
            return [_grade(prog, golden, table, indices)
                    for indices in chunk]

        blocks = parallel_map(
            _grade_shard, shards, jobs=n_jobs,
            initializer=_init_gate_worker, initargs=(nl, raw, table),
            serial_fallback=_serial, label="gates.fault_pool")

        # Verdicts scatter back by index, so results are independent of
        # the schedule.
        verdicts = np.zeros(len(table), dtype=bool)
        done = 0
        for indices, (block, _levels) in zip(shards, blocks):
            verdicts[np.asarray(indices, dtype=np.int64)] = block
            done += len(indices)
            if tel.enabled:
                tel.progress("gates.grade", done, len(table),
                             detected=int(verdicts.sum()),
                             coverage=float(verdicts.sum())
                             / max(1, len(table)))
        if tel.enabled and blocks:
            # Every shard was graded with the same fused program.
            tel.counter("gates.lut_fused_levels").add(blocks[0][1])
        missed = [faults[i] for i in np.flatnonzero(~verdicts).tolist()]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(len(table) / span.duration)
    return missed
