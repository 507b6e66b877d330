"""Shard planning, worker-side grading and deterministic merging.

A *shard* is a run of whole cone batches
(:func:`repro.gates.faults.schedule_fault_batches`) carrying the
**global** fault indices it covers.  Keeping batches intact preserves
the schedule's cone locality inside each worker, and carrying global
indices makes the merge trivial and order-free: verdicts and detection
times scatter back by index, the MISR signature merges by XOR of
per-shard partials (:mod:`repro.cluster.signature`), and coverage
checkpoints are a pure function of the merged detection times.  The whole pipeline is
bit-identical to a single-node :func:`gate_level_missed` run for *any*
partition, permutation or duplicated re-dispatch — the property the
merge-determinism suite asserts and the CI cluster-smoke job re-proves
against live workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ClusterError
from ..gates.fault_parallel import (
    DEFAULT_WORDS,
    gate_level_missed,
    program_and_golden,
)
from ..gates.faults import GateFaultTable, schedule_fault_batches
from ..generators.base import match_width
from ..resolve import make_generator
from ..telemetry import get_telemetry
from .signature import (
    combine_partials,
    shard_signature_partial,
    stream_signature,
)

__all__ = [
    "DEFAULT_MISR_WIDTH",
    "DEFAULT_SHARD_FAULTS",
    "MergedGrade",
    "PreparedProblem",
    "Shard",
    "coverage_checkpoints",
    "grade_shard",
    "grading_problem",
    "merge_shard_results",
    "plan_shards",
    "prepared_problem",
    "single_node_grade",
]

#: Compaction width of the per-run signature (wide enough that the CI
#: identity assertion is meaningful, narrow enough to read in a log).
DEFAULT_MISR_WIDTH = 16

#: Default shard granularity: big enough to amortize a worker's netlist
#: elaboration, small enough that a fleet of two already overlaps.
DEFAULT_SHARD_FAULTS = 4096


@dataclass(frozen=True)
class Shard:
    """One dispatchable unit: whole cone batches, global indices."""

    shard_id: int
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def grading_problem(ctx, design: str, generator: str, vectors: int,
                    width: int):
    """``(design, netlist, faults, stimulus)`` of one exact grading run.

    A shard names faults by *global* index into ``faults``; an index
    means the same fault on the coordinator and on every worker only
    because all of them build the universe and the stimulus here.  The
    stimulus is ``generator``'s first ``vectors`` words at ``width``
    bits, width-matched to the design's input.  Truncating or sampling
    the universe is left to the caller.
    """
    from ..gates import elaborate, enumerate_cell_faults

    dsg = ctx.designs[design]
    nl = elaborate(dsg.graph)
    faults = enumerate_cell_faults(dsg.graph, nl)
    gen = make_generator(generator, width, vectors)
    stimulus = match_width(gen.sequence(vectors), gen.width,
                           dsg.input_fmt.width)
    return dsg, nl, faults, stimulus


@dataclass(frozen=True)
class PreparedProblem:
    """A :func:`grading_problem`'s netlist, universe and stimulus, plus
    the program and golden waves its shards are graded against (the
    program memoizes its fused view)."""

    key: Tuple[str, str, int, int]
    netlist: Any
    faults: GateFaultTable
    stimulus: np.ndarray
    program: Any
    golden: np.ndarray


def prepared_problem(ctx, design: str, generator: str, vectors: int,
                     width: int) -> PreparedProblem:
    """``ctx``'s prepared grading problem for these inputs.

    The first call for a ``(design, generator, vectors, width)`` builds
    the problem, later calls reuse it.  The context holds at most one:
    a call for another key replaces it, and a build that raises keeps
    nothing.  Callers hold ``ctx.grading_lock``.  Counts
    ``service.problems.built`` and ``service.problems.reused``.
    """
    key = (design, generator, int(vectors), int(width))
    tel = get_telemetry()
    held = ctx.grading_memo
    if held is not None and held.key == key:
        if tel.enabled:
            tel.counter("service.problems.reused").add(1)
        return held
    ctx.grading_memo = None  # one problem in memory, even while building
    _dsg, nl, faults, stimulus = grading_problem(ctx, *key)
    program, golden = program_and_golden(nl, stimulus, cache=ctx.cache)
    held = ctx.grading_memo = PreparedProblem(key, nl, faults, stimulus,
                                              program, golden)
    if tel.enabled:
        tel.counter("service.problems.built").add(1)
    return held


def plan_shards(
    faults: GateFaultTable,
    *,
    max_faults: int = DEFAULT_SHARD_FAULTS,
    batch_size: int = 64 * DEFAULT_WORDS,
) -> List[Shard]:
    """Pack the cone batches into shards of ``<= max_faults``.

    Batches are never split (cone locality survives dispatch) and are
    packed in :func:`~repro.gates.faults.schedule_fault_batches` order.
    """
    if max_faults <= 0:
        raise ClusterError(f"max_faults must be positive, got {max_faults}")
    shards: List[Shard] = []
    current: List[np.ndarray] = []
    size = 0
    for batch in schedule_fault_batches(faults, batch_size):
        if size and size + len(batch) > max_faults:
            shards.append(Shard(len(shards),
                                tuple(np.concatenate(current).tolist())))
            current, size = [], 0
        current.append(batch)
        size += len(batch)
    if current:
        shards.append(Shard(len(shards),
                            tuple(np.concatenate(current).tolist())))
    return shards


def grade_shard(
    nl,
    input_raw,
    faults: GateFaultTable,
    indices: Sequence[int],
    total: int,
    *,
    misr_width: int = DEFAULT_MISR_WIDTH,
    misr_poly: int = 0,
    chunk: Optional[int] = None,
    program=None,
    net_waves: Optional[np.ndarray] = None,
) -> Dict[str, Any]:
    """Grade one shard — the worker side of the ``grade-shard`` job.

    Runs the exact engine over the shard's subset (its own iterative
    deepening, dropping and cone batching; verdicts and chunk-end
    detection times are subset-invariant) and compacts the shard into a
    JSON-able result: per-index verdicts, detection times and the MISR
    signature *partial* for the shard's global stream positions.
    ``program``/``net_waves`` are a :class:`PreparedProblem`'s, handed
    to :func:`gate_level_missed` so the shard builds neither.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    bad = (idx < 0) | (idx >= len(faults)) | (idx >= total)
    if bad.any():
        i = int(idx[np.argmax(bad)])
        if not 0 <= i < len(faults):
            raise ClusterError(
                f"fault index {i} out of range [0, {len(faults)})")
        raise ClusterError(
            f"fault index {i} >= signature stream length {total}")
    detect = np.full(idx.size, -1, dtype=np.int64)
    gate_level_missed(nl, input_raw, faults[idx],
                      chunk=chunk, detect_times=detect, program=program,
                      net_waves=net_waves)
    indices = idx.tolist()
    times = detect.tolist()
    partial = shard_signature_partial(
        misr_width, indices, times, total, poly=misr_poly)
    return {
        "indices": indices,
        "detected": (detect >= 0).astype(np.int64).tolist(),
        "detect_times": times,
        "signature_partial": int(partial),
        "faults": len(indices),
    }


def coverage_checkpoints(detect_times: np.ndarray, total: int,
                         test_length: int) -> List[Tuple[int, float]]:
    """Coverage over test length at every observed detection time.

    Checkpoints are the sorted distinct chunk-end detection times plus
    the full test length; each carries the fraction of the universe
    detected by that vector.  Purely a function of the merged detection
    times, hence identical for any shard partition.
    """
    times = np.asarray(detect_times, dtype=np.int64)
    points = sorted({int(t) for t in times[times >= 0]} | {int(test_length)})
    return [(t, float(np.count_nonzero((times >= 0) & (times <= t)))
             / max(1, total)) for t in points]


@dataclass
class MergedGrade:
    """A full-universe grading result, from one node or many."""

    verdicts: np.ndarray
    detect_times: np.ndarray
    signature: int
    checkpoints: List[Tuple[int, float]]
    test_length: int

    @property
    def total(self) -> int:
        return int(self.verdicts.size)

    @property
    def detected(self) -> int:
        return int(self.verdicts.sum())

    @property
    def coverage(self) -> float:
        return self.detected / max(1, self.total)

    @property
    def missed_indices(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(~self.verdicts)]

    def identical_to(self, other: "MergedGrade") -> bool:
        return (bool(np.array_equal(self.verdicts, other.verdicts))
                and bool(np.array_equal(self.detect_times,
                                        other.detect_times))
                and self.signature == other.signature
                and self.checkpoints == other.checkpoints)


def merge_shard_results(
    total: int,
    results: Sequence[Dict[str, Any]],
    *,
    test_length: int,
    misr_width: int = DEFAULT_MISR_WIDTH,
) -> MergedGrade:
    """Fold per-shard results into one :class:`MergedGrade`.

    Duplicate deliveries of the same shard (straggler re-dispatch) are
    deduplicated by shard id — and cross-checked: a duplicate that
    *disagrees* with the first delivery means a worker graded wrong, so
    the merge refuses rather than silently picking one.  The merge also
    refuses on overlap or gaps: every fault index must be covered by
    exactly one surviving shard.
    """
    verdicts = np.zeros(total, dtype=bool)
    detect_times = np.full(total, -1, dtype=np.int64)
    seen: Dict[Any, Dict[str, Any]] = {}
    covered = np.zeros(total, dtype=bool)
    partials: List[int] = []
    for res in results:
        sid = res.get("shard")
        if sid is None:
            raise ClusterError("shard result is missing its shard id")
        first = seen.get(sid)
        if first is not None:
            for field in ("indices", "detected", "detect_times",
                          "signature_partial"):
                if first.get(field) != res.get(field):
                    raise ClusterError(
                        f"duplicate deliveries of shard {sid} disagree "
                        f"on {field!r}")
            continue
        seen[sid] = res
        idx = np.asarray(res["indices"], dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= total):
            raise ClusterError(
                f"shard {sid} carries out-of-range fault indices")
        if covered[idx].any():
            raise ClusterError(
                f"shard {sid} overlaps an already-merged shard")
        covered[idx] = True
        verdicts[idx] = np.asarray(res["detected"], dtype=np.int64) > 0
        detect_times[idx] = np.asarray(res["detect_times"], dtype=np.int64)
        partials.append(int(res["signature_partial"]))
    if not covered.all():
        missing = int(total - covered.sum())
        raise ClusterError(
            f"incomplete merge: {missing} of {total} faults uncovered")
    return MergedGrade(
        verdicts=verdicts,
        detect_times=detect_times,
        signature=combine_partials(partials),
        checkpoints=coverage_checkpoints(detect_times, total, test_length),
        test_length=test_length,
    )


def single_node_grade(
    nl,
    input_raw,
    faults: GateFaultTable,
    *,
    misr_width: int = DEFAULT_MISR_WIDTH,
    misr_poly: int = 0,
    cache=None,
    chunk: Optional[int] = None,
) -> MergedGrade:
    """The single-node oracle the fleet must reproduce bit for bit.

    One :func:`gate_level_missed` pass over the whole universe; the
    signature clocks a *real* MISR over the canonical detection-time
    stream (not the partial algebra), so fleet-vs-oracle comparisons
    exercise both sides of the signature identity.
    """
    detect = np.full(len(faults), -1, dtype=np.int64)
    gate_level_missed(nl, input_raw, faults, cache=cache, chunk=chunk,
                      detect_times=detect)
    test_length = int(len(input_raw))
    return MergedGrade(
        verdicts=detect >= 0,
        detect_times=detect,
        signature=stream_signature(misr_width, [int(t) for t in detect],
                                   poly=misr_poly),
        checkpoints=coverage_checkpoints(detect, len(faults), test_length),
        test_length=test_length,
    )
