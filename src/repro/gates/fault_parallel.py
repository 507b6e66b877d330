"""Fault-parallel exact gate-level fault simulation.

Grading re-simulates the netlist with **64 faulty circuit copies packed
into each machine word**: every net's waveform is a ``uint64`` array,
bit ``j`` of each word belonging to copy ``j`` of the batch, and
stuck-at faults become per-line set/clear masks — so one pass grades
64 faults bit-exactly, and the full universe costs ``ceil(F / 64)``
passes.

Three composable optimizations make each pass cheap while keeping every
verdict bit-identical to the straightforward whole-netlist evaluation
(retained below as :func:`fault_parallel_reference` /
:func:`gate_level_missed_reference`, the oracle of the randomized
equivalence suite and the baseline of ``repro bench --gates``):

* **compiled evaluation** — the netlist is lowered once to a levelized
  structure-of-arrays program (:mod:`repro.gates.compiled`), the golden
  machine is simulated once recording every net's waveform, and up to
  :data:`DEFAULT_WORDS` 64-fault words are evaluated side by side so
  each numpy call is amortized over hundreds of faulty machines;
* **fused cone sweeps** — each batch evaluates only the transitive
  fanout cone of its fault sites, swept level by level over fused LUT
  super-gates (:class:`~repro.gates.eventsim.EventCone`); the
  cone-aware scheduler (:func:`repro.gates.faults.schedule_fault_batches`)
  packs cone-local faults into the same batch to keep cones small;
* **chunked time with fault dropping** — the cone is evaluated in time
  chunks (:data:`DEFAULT_CHUNK` vectors), per-word detection words
  accumulate after each chunk, fully-detected words are compacted
  away, and a batch stops early once every lane is detected — which
  the paper's own coverage curves say happens within the first few
  hundred vectors for >99% of faults.

Cone sizes, skipped chunks and dropped faults surface as the telemetry
counters ``gates.cone_nets``, ``gates.chunks_skipped`` and
``gates.faults_dropped`` (see ``repro profile --exact``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..telemetry import get_telemetry
from .compiled import (
    CompiledNetlist,
    ConeWorkspace,
    compiled_program,
    golden_net_waves,
)
from .eventsim import LineMasks
from .faults import (EnumeratedFault, FaultLines, GateFaultTable,
                     schedule_fault_batches)
from .gatesim import NetlistFault, fault_lines, pack_input_bits
from .netlist import GateNetlist

__all__ = [
    "DEFAULT_CHUNK",
    "DEFAULT_WORDS",
    "fault_parallel_reference",
    "gate_level_missed",
    "gate_level_missed_reference",
    "program_and_golden",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Time-chunk length (vectors) for the chunked batch evaluator.
DEFAULT_CHUNK = 512

#: 64-fault words evaluated side by side per cone pass.
DEFAULT_WORDS = 8

#: First-deepening-stage word width when callers leave ``words`` unset.
#: The event evaluator's per-chunk cost is dominated by fixed per-op
#: Python overhead while the stage-1 prefix is short, so packing 4x more
#: faults per cone pass cuts the pass count (and cone construction)
#: almost linearly; later stages keep :data:`DEFAULT_WORDS` so the
#: per-net buffers stay small at full stimulus length.  Verdicts and
#: chunk-end detection times are batch-size independent, so widening
#: one stage cannot change a result.
EVENT_STAGE1_WORDS = 32


def _group_masks(key: np.ndarray, row: np.ndarray, value: np.ndarray,
                 words: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lines, set words, clear words)`` of stuck entries ``key`` held
    by batch rows ``row``; lines in order of first appearance."""
    lines, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    line_of = np.empty(order.size, dtype=np.int64)
    line_of[order] = np.arange(order.size)
    masks = np.zeros((2, order.size, words), dtype=np.uint64)
    lane = np.left_shift(np.uint64(1), (row & 63).astype(np.uint64))
    np.bitwise_or.at(masks, ((value == 0).astype(np.intp),
                             line_of[inverse.reshape(-1)], row >> 6), lane)
    return lines[order], masks[0], masks[1]


def _line_masks(lines: FaultLines, words: int = 1) -> LineMasks:
    """Per-line (set, clear) lane-mask words for up to ``64 * words`` faults.

    Fault ``j`` becomes bit ``j % 64`` of word ``j // 64``; each stuck
    net and each stuck ``(gate, pin)`` gets one row of ``(words,)``
    uint64 set and clear words, built by array group-bys.
    """
    rows = np.arange(len(lines))
    is_net = lines.net >= 0
    net, net_set, net_clr = _group_masks(
        lines.net[is_net], rows[is_net], lines.value[is_net], words)
    has_pin = lines.pin_gate >= 0
    pin_row = np.nonzero(has_pin)[0]
    gate, pin = lines.pin_gate[has_pin], lines.pin[has_pin]
    base = int(pin.max()) + 1 if pin.size else 1
    keys, pin_set, pin_clr = _group_masks(
        gate * base + pin, pin_row, lines.value[pin_row], words)
    return LineMasks(net=net, net_set=net_set, net_clr=net_clr,
                     pin_gate=keys // base, pin=keys % base,
                     pin_set=pin_set, pin_clr=pin_clr)


def _grade_cone_batch(
    prog: CompiledNetlist,
    golden: np.ndarray,
    faults: Union[FaultLines, Sequence[NetlistFault]],
    chunk: int,
    ws: ConeWorkspace,
    length: Optional[int] = None,
    first_detect: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Verdicts + drop statistics for one multi-word cone pass.

    Builds the :class:`~repro.gates.eventsim.EventCone` over the fused
    super-gate program and drives it chunk by chunk: per-word dropping
    and chunk-end detection-time capture live here.  ``faults`` are the
    batch's line columns (or :class:`NetlistFault` objects).

    ``golden`` is the boolean ``(nets, T)`` matrix of
    :func:`~repro.gates.compiled.golden_net_waves`.  ``length`` grades
    only the stimulus prefix ``[0, length)`` — the
    building block of the iterative-deepening driver; detection over a
    prefix is exact for that prefix.

    ``first_detect`` (an ``int64`` array aligned with ``faults``, filled
    with ``-1``) optionally receives each detected fault's first
    detection time at chunk-end granularity: the end, in vectors, of the
    chunk in which its faulty waveform first diverged.  Because every
    pass grades from ``t=0`` the times are independent of batch
    composition.
    """
    from .eventsim import EventCone, fused_program

    lines = FaultLines.of(faults)
    n = len(lines)
    words = -(-n // 64)
    if length is None:
        length = golden.shape[1]
    chunk = min(chunk, length) if length else 1
    cone = EventCone(fused_program(prog), _line_masks(lines, words), words)
    # Golden is read lazily straight from the full (contiguous) matrix;
    # per-chunk slices stay within [0, length).
    cone.bind_golden(golden)

    full = np.full(words, _ALL_ONES, dtype=np.uint64)
    tail = n - 64 * (words - 1)
    if tail < 64:
        full[-1] = np.uint64((1 << tail) - 1)
    lanes_of = np.full(words, 64, dtype=np.int64)
    lanes_of[-1] = tail

    detected = np.zeros(words, dtype=np.uint64)
    active = np.arange(words)
    skipped = dropped = work = 0
    lanes64 = np.arange(64, dtype=np.uint64)
    # Wide passes (the widened first deepening stage) evaluate in fine
    # sub-chunk steps so fully-detected words compact away *within* the
    # canonical chunk: on a short prefix most faults are caught inside
    # the first few dozen vectors, after which the remaining columns
    # run over a handful of words instead of all of them.  Steps never
    # cross a canonical chunk boundary and detection times are rounded
    # up to it, so verdicts and times are independent of the stepping.
    fine = max(32, chunk // 4)
    t0 = 0
    while length and t0 < length:
        bnd = (t0 // chunk + 1) * chunk
        t1 = min(t0 + (fine if active.size >= 16 else chunk), bnd,
                 length)
        work += int(lanes_of[active].sum()) * (t1 - t0)
        hits = cone.evaluate_chunk(ws, t0, t1)
        if first_detect is not None:
            fresh = hits & ~detected[active]
            if fresh.any():
                bits = ((fresh[:, None] >> lanes64[None, :])
                        & np.uint64(1)).astype(bool)
                rows = (active[:, None] * 64
                        + np.arange(64)[None, :])[bits]
                first_detect[rows[rows < n]] = min(bnd, length)
        detected[active] |= hits
        done = detected[active] == full[active]
        if t1 == length:
            break
        if done.any():
            skipped += -(-(length - t1) // chunk) * int(done.sum())
            dropped += int(lanes_of[active[done]].sum())
            if done.all():
                break
            cone.compact(~done)
            active = active[~done]
        t0 = t1
    stats = {
        "cone_nets": cone.cone_nets,
        "chunks_skipped": skipped,
        "faults_dropped": dropped,
        "work": work,
        "frontier_nets": cone.rows_evaluated,
    }
    bits = ((detected[:, None] >> lanes64[None, :]) & np.uint64(1))
    return bits.astype(bool).ravel()[:n], stats


def _deepening_schedule(length: int, chunk: int,
                        growth: int = 8) -> List[int]:
    """Prefix lengths for iterative-deepening fault grading.

    Detection is monotone in the stimulus prefix — a faulty output that
    differs anywhere in ``[0, T1)`` differs in ``[0, T)`` for any
    ``T >= T1`` — so the easy majority of faults can be finalized on a
    short prefix and only the survivors re-graded (from t=0, no state
    carrying) on geometrically longer ones.  The last stage is always
    the full length, which keeps every verdict bit-exact.
    """
    stages: List[int] = []
    t = max(64, chunk // 4)
    while t < length:
        stages.append(t)
        t *= growth
    stages.append(length)
    return stages


def _emit_batch_stats(tel, n_faults: int, stats: Dict[str, int]) -> None:
    tel.counter("gates.fault_batches").add(1)
    tel.counter("gates.faults_graded").add(n_faults)
    tel.counter("gates.cone_nets").add(stats["cone_nets"])
    tel.counter("gates.lane_vectors").add(stats["work"])
    for key in ("chunks_skipped", "faults_dropped", "frontier_nets"):
        if stats[key]:
            tel.counter(f"gates.{key}").add(stats[key])


def _grade_verdicts(
    prog: CompiledNetlist,
    golden: np.ndarray,
    faults: GateFaultTable,
    *,
    chunk: Optional[int] = None,
    words: Optional[int] = None,
    detect_times: Optional[np.ndarray] = None,
    on_batch: Optional[Callable[[Dict[str, int]], None]] = None,
) -> np.ndarray:
    """The iterative-deepening verdict loop behind every exact grade.

    Every fault is graded on a short stimulus prefix first; detected
    faults are final (detection is monotone in the prefix), survivors
    are repacked into fresh cone-local batches and re-graded on
    geometrically longer prefixes, the last being the full sequence —
    so the hard tail of each batch never drags a full-length cone
    evaluation along with it.  Each stage schedules and masks its
    survivors straight from the table's columns.  Returns verdicts
    aligned with ``faults``.

    Emits one ``gates.fault_batch`` span and the per-batch counters,
    nothing run-level: :func:`gate_level_missed` owns the progress
    stream and the throughput gauge, so pool workers grading a slice of
    a larger run never publish a stream whose ``total`` is their slice.
    ``on_batch`` receives a record per graded batch: its ``prefix``
    and ``dropped`` count, and the running ``detected``/``finalized``
    totals.
    """
    tel = get_telemetry()
    length = golden.shape[1]
    chunk_len = min(DEFAULT_CHUNK if chunk is None else max(1, int(chunk)),
                    max(length, 1))
    n_words = DEFAULT_WORDS if words is None else max(1, int(words))
    ws = ConeWorkspace()
    verdicts = np.zeros(len(faults), dtype=bool)
    remaining = np.arange(len(faults))
    finalized = 0
    stages = _deepening_schedule(length, chunk_len)
    for stage_len in stages:
        final = stage_len == length
        stage_words = (EVENT_STAGE1_WORDS
                       if words is None and stage_len == stages[0]
                       else n_words)
        for batch in schedule_fault_batches(faults[remaining],
                                            64 * stage_words):
            idx = remaining[batch]
            first_detect = (np.full(len(batch), -1, dtype=np.int64)
                            if detect_times is not None else None)
            with tel.span("gates.fault_batch", faults=len(batch),
                          prefix=stage_len):
                batch_verdicts, stats = _grade_cone_batch(
                    prog, golden, faults.lines.take(idx),
                    chunk_len, ws, length=stage_len,
                    first_detect=first_detect)
            verdicts[idx] = batch_verdicts
            if first_detect is not None:
                hit = first_detect >= 0
                detect_times[idx[hit]] = first_detect[hit]
            if tel.enabled:
                _emit_batch_stats(tel, len(batch), stats)
            finalized += (len(batch) if final
                          else int(batch_verdicts.sum()))
            if on_batch is not None:
                on_batch({
                    "prefix": stage_len,
                    "dropped": stats["faults_dropped"],
                    "detected": int(verdicts.sum()),
                    "finalized": finalized,
                })
        if final:
            break
        remaining = remaining[~verdicts[remaining]]
        if not remaining.size:
            break
    return verdicts


def program_and_golden(
    nl: GateNetlist,
    input_raw: Sequence[int],
    *,
    cache=None,
) -> Tuple[CompiledNetlist, np.ndarray]:
    """``(compiled program, golden per-net waves)`` of one exact grade.

    The program comes through
    :func:`~repro.cache.pipeline.cached_gate_program`, so an
    :class:`~repro.cache.ArtifactCache` passed as ``cache`` persists it
    across processes; its fused view is built here too.  The golden
    machine is simulated here every time: it costs less than loading or
    storing its matrix.  Golden stays the boolean ``(nets, T)`` matrix:
    each chunk of a cone sweep casts only the golden rows it reads (its
    seed and boundary rows, and observed outputs) to 64-lane words.
    The two stages are the ``gates.compile`` and ``gates.golden``
    spans.
    """
    from ..cache.pipeline import cached_gate_program
    from .eventsim import fused_program

    tel = get_telemetry()
    raw = np.asarray(input_raw, dtype=np.int64)
    with tel.span("gates.compile"):
        prog = cached_gate_program(cache, nl, lambda: compiled_program(nl))
        fused_program(prog)
    with tel.span("gates.golden", vectors=len(raw)):
        golden = golden_net_waves(prog, pack_input_bits(raw,
                                                        len(nl.input_bits)))
    return prog, golden


def gate_level_missed(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Union[GateFaultTable, Sequence[EnumeratedFault]],
    *,
    cache=None,
    chunk: Optional[int] = None,
    words: Optional[int] = None,
    detect_times: Optional[np.ndarray] = None,
    program: Optional[CompiledNetlist] = None,
    net_waves: Optional[np.ndarray] = None,
) -> List[EnumeratedFault]:
    """Exact gate-level missed-fault list over an arbitrary universe.

    ``faults`` is a :class:`~repro.gates.faults.GateFaultTable` (a
    sequence of :class:`EnumeratedFault` is converted to one).  Faults
    are grouped into cone-local batches
    (:func:`repro.gates.faults.schedule_fault_batches`) of
    ``64 * words`` and graded by the fused cone sweep; the
    returned list holds ``faults``' items for the missed rows, in input
    order, so results do not depend on how faults are batched.
    Progress is published on the ``gates.grade`` telemetry stream after
    every batch.
    ``words`` left unset widens the first deepening stage to
    :data:`EVENT_STAGE1_WORDS`.

    Pass an :class:`~repro.cache.ArtifactCache` as ``cache`` to persist
    (and reuse) the compiled program, keyed on netlist content.

    ``detect_times`` (an ``int64`` array aligned with ``faults``, filled
    with ``-1``) receives each detected fault's first detection time at
    chunk-end granularity; undetected faults keep ``-1``.

    ``program``/``net_waves`` accept the pair
    :func:`program_and_golden` returns for this netlist and stimulus;
    pass both or neither.  A service grading many shards of one problem
    builds the pair once, and ``repro bench --gates`` uses this to time
    the compile/golden/grade phases separately.
    """
    tel = get_telemetry()
    raw = np.asarray(input_raw, dtype=np.int64)
    table = GateFaultTable.of(faults)
    n_faults = len(table)
    with tel.span("gates.fault_parallel", faults=n_faults,
                  vectors=len(raw)) as span:
        if program is None or net_waves is None:
            program, net_waves = program_and_golden(nl, raw, cache=cache)
        if tel.enabled:
            from .eventsim import fused_program

            tel.counter("gates.lut_fused_levels").add(
                fused_program(program).stats["levels_fused"])
        dropped = 0

        def after_batch(record: Dict[str, int]) -> None:
            nonlocal dropped
            dropped += record["dropped"]
            if tel.enabled:
                tel.progress(
                    "gates.grade", record["finalized"], n_faults,
                    detected=record["detected"],
                    coverage=record["detected"] / max(1, n_faults),
                    dropped=dropped, prefix=record["prefix"])

        verdicts = _grade_verdicts(
            program, net_waves, table, chunk=chunk, words=words,
            detect_times=detect_times, on_batch=after_batch)
        missed = [faults[i] for i in np.flatnonzero(~verdicts).tolist()]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(n_faults / span.duration)
    return missed


# ----------------------------------------------------------------------
# Reference engine (pre-optimization): whole netlist, whole time axis
# ----------------------------------------------------------------------
def fault_parallel_reference(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[NetlistFault],
    golden: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The straightforward fault-parallel pass: every net, every vector.

    Returns each fault's first divergent vector: the index of the first
    stimulus vector at which the faulty copy's outputs differ from the
    fault-free machine's, or ``-1`` when they never do (so ``>= 0`` is
    the alias-free detection verdict).  Kept as the bit-exactness oracle
    for the event engine — the randomized equivalence suite maps these
    times onto the driver's chunk-end axis and asserts verdicts,
    detection times and MISR signatures — and as the baseline
    ``repro bench --gates`` measures speedup against.
    """
    if len(faults) > 64:
        raise SimulationError("at most 64 faults per batch")
    raw = np.asarray(input_raw, dtype=np.int64)
    length = len(raw)
    # Lane j of every line the fault sticks: set for stuck-at-1, clear
    # for stuck-at-0 (nets keyed by id, pins by (gate, pin)).
    masks: Dict[object, List[int]] = {}
    for j, fault in enumerate(faults):
        stuck_net, stuck_pins, stuck_value = fault_lines(fault)
        keys = ([stuck_net] if stuck_net is not None else
                [(g, p) for g, pins in stuck_pins.items() for p in pins])
        for key in keys:
            masks.setdefault(key, [0, 0])[0 if stuck_value else 1] |= 1 << j
    net_masks = {k: (np.uint64(s), np.uint64(c))
                 for k, (s, c) in masks.items() if isinstance(k, int)}
    pin_masks = {k: (np.uint64(s), np.uint64(c))
                 for k, (s, c) in masks.items() if isinstance(k, tuple)}

    # Reference-count nets so waveforms are freed after their last reader.
    reads: Dict[int, int] = {}
    for gate in nl.gates:
        for net in gate.ins:
            reads[net] = reads.get(net, 0) + 1
    for dff in nl.dffs:
        reads[dff.d] = reads.get(dff.d, 0) + 1
    for net in nl.output_bits:
        reads[net] = reads.get(net, 0) + 1

    values: Dict[int, np.ndarray] = {}

    def write(net: int, wave: np.ndarray) -> None:
        if net in net_masks:
            s, c = net_masks[net]
            wave = (wave | s) & ~c
        values[net] = wave

    def read(net: int) -> np.ndarray:
        wave = values[net]
        reads[net] -= 1
        if reads[net] == 0:
            del values[net]
        return wave

    zero = np.zeros(length, dtype=np.uint64)
    ones = np.full(length, _ALL_ONES, dtype=np.uint64)
    write(nl.CONST0, zero)
    write(nl.CONST1, ones)
    for j, net in enumerate(nl.input_bits):
        bits = ((raw >> j) & 1).astype(bool)
        write(net, np.where(bits, _ALL_ONES, np.uint64(0)))

    # Constants and inputs may have zero registered reads (unused nets);
    # guard the refcount so `read` is never called on them implicitly.
    for elem_kind, idx in nl.elements:
        if elem_kind == "gate":
            gate = nl.gates[idx]
            ins = []
            for pin, net in enumerate(gate.ins):
                wave = read(net)
                key = (idx, pin)
                if key in pin_masks:
                    s, c = pin_masks[key]
                    wave = (wave | s) & ~c
                ins.append(wave)
            if gate.kind == "xor":
                out = ins[0] ^ ins[1]
            elif gate.kind == "and":
                out = ins[0] & ins[1]
            elif gate.kind == "or":
                out = ins[0] | ins[1]
            elif gate.kind == "not":
                out = ~ins[0]
            elif gate.kind == "buf":
                out = ins[0]
            else:  # pragma: no cover - elaboration only emits these kinds
                raise SimulationError(f"unknown gate kind {gate.kind!r}")
            write(gate.out, out)
        else:
            dff = nl.dffs[idx]
            d = read(dff.d)
            q = np.empty_like(d)
            q[0] = 0
            q[1:] = d[:-1]
            write(dff.q, q)

    # Compare each copy's outputs against the fault-free machine.
    if golden is None:
        from .gatesim import simulate_netlist

        golden = simulate_netlist(nl, raw)["output"]
    diff = np.zeros(length, dtype=np.uint64)
    for j, net in enumerate(nl.output_bits):
        good = ((golden >> j) & 1).astype(bool)
        good_wave = np.where(good, _ALL_ONES, np.uint64(0))
        diff |= read(net) ^ good_wave
    if not length:
        return np.full(len(faults), -1, dtype=np.int64)
    # Bit j of diff[t] is set when copy j's outputs differ at vector t.
    lanes = np.arange(len(faults), dtype=np.uint64)
    bits = ((diff[:, None] >> lanes[None, :]) & np.uint64(1)).astype(bool)
    first = bits.argmax(axis=0).astype(np.int64)
    first[~bits.any(axis=0)] = -1
    return first


def gate_level_missed_reference(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[EnumeratedFault],
) -> List[EnumeratedFault]:
    """Pre-optimization missed-fault list: plain 64-fault slices.

    Grades the whole netlist over the whole time axis per batch; the
    equivalence oracle and benchmark baseline for
    :func:`gate_level_missed`.
    """
    from .gatesim import simulate_netlist

    golden = simulate_netlist(nl, input_raw)["output"]
    missed: List[EnumeratedFault] = []
    for start in range(0, len(faults), 64):
        batch = faults[start:start + 64]
        first = fault_parallel_reference(
            nl, input_raw, [f.netlist_fault for f in batch], golden=golden)
        missed.extend(f for f, t in zip(batch, first) if t < 0)
    return missed
