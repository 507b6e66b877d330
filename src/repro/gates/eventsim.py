"""Event-driven incremental fault evaluation over fused LUT super-gates.

A dense cone evaluator re-evaluates its whole cone at every level for
every time chunk, even when the faulty waveform has long reconverged to
the golden one.  The paper's own premise — faults matter only while
narrow test zones are exercised (§1.1) — means most of those
evaluations provably reproduce golden values.  This module is the cone
engine behind :func:`repro.gates.fault_parallel.gate_level_missed`,
exploiting that:

* **super-gate fusion** (:func:`fuse_program`) — at program-compile
  time, chains of single-fanout gates spanning up to
  :data:`MAX_FUSE_DEPTH` consecutive levels are fused into LUT
  super-gates of at most :data:`MAX_FUSE_INPUTS` external inputs and
  :data:`MAX_FUSE_MEMBERS` member gates.  Each super-gate's boolean
  function is captured as a truth table over its external inputs
  (:func:`recipe_truth_table`, one bit per minterm — at most ``2**6``
  bits, so it always fits a machine word; 3-input super-gates fit a
  ``uint8``).  The table is the super-gate's *identity*: units sharing
  a recipe batch into one vectorized group, and the re-levelized
  super-gate graph has fewer levels than the original program, cutting
  the per-level dispatch count where the frontier is still wide.
  Packed 64-lane words evaluate a super-gate by replaying its fused
  recipe (2-5 bitwise ops) — cheaper than a ``2**K``-term minterm
  expansion of the same table, and bit-identical to it.

* **event-driven evaluation** (:class:`EventCone`) — per time chunk,
  only *difference words* propagate: a super-gate is evaluated only
  when one of its external inputs is **dirty** (its faulty waveform
  differs from golden somewhere in the chunk) or the unit itself hosts
  a fault force.  Clean operands are substituted straight from the
  golden waveform matrix, computed outputs are compared against golden
  to detect reconvergence (a row that comes back clean stops
  propagating), and a chunk whose frontier is empty — no dirty seeds,
  no forced units, no dirty flop carries — is skipped outright.

:class:`EventCone` exposes a small driver contract (``bind_golden`` /
``evaluate_chunk`` / ``compact``); the grading loop in
:mod:`repro.gates.fault_parallel` — iterative deepening, per-word fault
dropping, chunk-end detection times — lives outside it, so verdicts,
detection times and MISR signatures never depend on the cone's
dense/sparse mode choices.  Frontier sizes, skipped chunks and mode
choices surface as the telemetry counters ``gates.frontier_nets``,
``gates.words_skipped``, ``gates.dense_chunks`` and
``gates.sparse_chunks``; levels removed by fusion as
``gates.lut_fused_levels``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .compiled import (
    CompiledNetlist,
    ConeWorkspace,
    _TWO_INPUT,
    _flat_program,
    _word_arr,
)

__all__ = [
    "MAX_FUSE_DEPTH",
    "MAX_FUSE_INPUTS",
    "MAX_FUSE_MEMBERS",
    "FusedGroup",
    "FusedProgram",
    "EventCone",
    "fuse_program",
    "fused_program",
    "recipe_truth_table",
]

#: Maximum original gate levels absorbed into one super-gate.
MAX_FUSE_DEPTH = 3

#: Maximum distinct external input nets per super-gate (truth tables
#: stay <= 64 bits).
MAX_FUSE_INPUTS = 6

#: Maximum member gates per super-gate recipe.
MAX_FUSE_MEMBERS = 5

#: Pre-built workspace-buffer names for recipe-member temporaries —
#: the chunk loop runs hot enough that per-op f-string formatting of
#: buffer keys shows up in profiles.
_MKEYS = tuple(f"ev_m{j}" for j in range(max(MAX_FUSE_MEMBERS, 8) * 4))


def recipe_truth_table(recipe: Tuple[Tuple[str, int, int], ...],
                       n_ext: int) -> int:
    """Truth table of a fused recipe over its external inputs.

    Bit ``m`` of the result is the super-gate's output for the input
    minterm ``m`` (external slot ``i`` = bit ``i`` of ``m``).  Recipe
    members are ``(kind, src0, src1)`` with ``src >= 0`` naming an
    external slot and ``src < 0`` the earlier member ``-(src + 1)``;
    one-input kinds mirror ``src0`` into ``src1``.  Returns ``-1`` for
    sequential (dff) recipes, which have no combinational table.
    """
    if n_ext > MAX_FUSE_INPUTS or any(k == "dff" for k, _s0, _s1 in recipe):
        return -1
    minterms = np.arange(1 << n_ext, dtype=np.uint64)
    one = np.uint64(1)
    ext = [(minterms >> np.uint64(i)) & one for i in range(n_ext)]
    vals: List[np.ndarray] = []
    for kind, s0, s1 in recipe:
        a = ext[s0] if s0 >= 0 else vals[-s0 - 1]
        b = ext[s1] if s1 >= 0 else vals[-s1 - 1]
        if kind == "xor":
            v = a ^ b
        elif kind == "and":
            v = a & b
        elif kind == "or":
            v = a | b
        elif kind == "not":
            v = a ^ one
        else:  # buf
            v = a
        vals.append(v)
    return int(np.bitwise_or.reduce(vals[-1] << minterms))


@dataclass
class FusedGroup:
    """All super-gates of one level sharing one recipe.

    ``recipe`` is the member-op sequence (see
    :func:`recipe_truth_table`); ``table`` its truth table over the
    ``n_ext`` external inputs.  ``out`` / ``ext`` / ``elem`` are
    parallel arrays over the group's units: final output net, external
    input nets (every unit has exactly ``n_ext`` distinct ones — the
    slot count is part of the group key) and the original gate/dff
    indices of each member.
    """

    recipe: Tuple[Tuple[str, int, int], ...]
    n_ext: int
    table: int
    out: np.ndarray
    ext: np.ndarray
    elem: np.ndarray

    @property
    def is_dff(self) -> bool:
        return self.recipe[-1][0] == "dff"

    @property
    def n_members(self) -> int:
        return len(self.recipe)


@dataclass
class FusedProgram:
    """The super-gate graph lowered from one compiled program.

    ``gate_loc`` locates every original gate's member position
    ``(level, group, row, member)`` — the pin-fault injection map;
    ``internal_loc`` locates nets absorbed inside a super-gate (their
    waveforms are never materialized, so net faults on them become
    member-output forces); ``out_loc`` locates every unit's final
    output net.
    """

    prog: CompiledNetlist
    n_nets: int
    levels: List[List[FusedGroup]] = field(default_factory=list)
    gate_loc: Dict[int, Tuple[int, int, int, int]] = field(
        default_factory=dict)
    internal_loc: Dict[int, Tuple[int, int, int, int]] = field(
        default_factory=dict)
    out_loc: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def unit_count(self) -> int:
        return sum(len(g.out) for groups in self.levels for g in groups)


class _Unit:
    """One super-gate under construction during the fusion sweep."""

    __slots__ = ("members", "ext", "out", "depth", "absorbed", "internal")

    def __init__(self, members, ext, out, depth, internal):
        self.members = members      # [(kind, elem_idx, src0, src1)]
        self.ext = ext              # ordered distinct external net ids
        self.out = out
        self.depth = depth
        self.absorbed = False
        self.internal = internal    # [(net, member_index)]


def fuse_program(prog: CompiledNetlist) -> FusedProgram:
    """Fuse single-fanout chains of a compiled program into super-gates.

    One topological sweep: each gate starts as its own unit; a producer
    unit is absorbed into its reader when it is the net's *only* reader,
    the net is not a primary output, and the merged unit stays within
    the depth/input/member budgets.  Flops are never fused (their
    one-sample shift is not a combinational member).  Root units are
    re-levelized by longest path over the super-gate graph and grouped
    deterministically by ``(level, n_ext, recipe)``.
    """
    flat = _flat_program(prog)
    n_nets = prog.n_nets

    readers = np.zeros(n_nets, dtype=np.int64)
    for groups in flat.group_slices:
        for kind, s, e in groups:
            np.add.at(readers, flat.in0[s:e], 1)
            if kind in _TWO_INPUT:
                np.add.at(readers, flat.in1x[s:e], 1)
    if prog.output_bits.size:
        np.add.at(readers, prog.output_bits, 1)
    is_out = np.zeros(n_nets, dtype=bool)
    is_out[prog.output_bits] = True

    unit_by_out: Dict[int, _Unit] = {}
    order: List[_Unit] = []
    for groups in flat.group_slices:
        for kind, s, e in groups:
            two = kind in _TWO_INPUT
            for i in range(s, e):
                out = int(flat.out[i])
                eidx = int(flat.elem[i])
                if kind == "dff":
                    u = _Unit([("dff", eidx, 0, 0)], [int(flat.in0[i])],
                              out, 1, [])
                    unit_by_out[out] = u
                    order.append(u)
                    continue
                srcs = ([int(flat.in0[i]), int(flat.in1x[i])] if two
                        else [int(flat.in0[i])])
                members: List[Tuple[str, int, int, int]] = []
                ext: List[int] = []
                internal: List[Tuple[int, int]] = []
                depth = 1
                codes: List[int] = []
                for pos, net in enumerate(srcs):
                    remaining = len(srcs) - pos - 1
                    child = unit_by_out.get(net)
                    fuse = (
                        child is not None
                        and not child.absorbed
                        and child.members[-1][0] != "dff"
                        and readers[net] == 1
                        and not is_out[net]
                        and len(members) + len(child.members) + 1
                        <= MAX_FUSE_MEMBERS
                        and max(depth, child.depth + 1) <= MAX_FUSE_DEPTH
                    )
                    if fuse:
                        extra = [n for n in child.ext if n not in ext]
                        if len(ext) + len(extra) + remaining \
                                > MAX_FUSE_INPUTS:
                            fuse = False
                    if fuse:
                        offset = len(members)
                        for ck, ce, cs0, cs1 in child.members:
                            members.append((ck, ce,
                                            _remap(cs0, child.ext, ext,
                                                   offset),
                                            _remap(cs1, child.ext, ext,
                                                   offset)))
                        for nnet, mi in child.internal:
                            internal.append((nnet, mi + offset))
                        internal.append(
                            (net, offset + len(child.members) - 1))
                        child.absorbed = True
                        codes.append(-(offset + len(child.members)))
                        depth = max(depth, child.depth + 1)
                    else:
                        codes.append(_slot(net, ext))
                s0 = codes[0]
                s1 = codes[1] if two else codes[0]
                members.append((kind, eidx, s0, s1))
                u = _Unit(members, ext, out, depth, internal)
                unit_by_out[out] = u
                order.append(u)

    roots = [u for u in order if not u.absorbed]

    # Re-levelize by longest path over super-gates: processing in the
    # original topological order guarantees every external input's
    # level is final before its readers are placed.
    slevel = np.zeros(n_nets, dtype=np.int64)
    buckets: Dict[Tuple[int, int, Tuple], List[_Unit]] = {}
    max_lvl = 0
    for u in roots:
        lvl = 1 + max((int(slevel[n]) for n in u.ext), default=0)
        slevel[u.out] = lvl
        recipe = tuple((k, a, b) for k, _e, a, b in u.members)
        buckets.setdefault((lvl, len(u.ext), recipe), []).append(u)
        max_lvl = max(max_lvl, lvl)

    fused = FusedProgram(prog=prog, n_nets=n_nets,
                         levels=[[] for _ in range(max_lvl)])
    for key in sorted(buckets):
        lvl, n_ext, recipe = key
        units = buckets[key]
        li = lvl - 1
        gi = len(fused.levels[li])
        group = FusedGroup(
            recipe=recipe,
            n_ext=n_ext,
            table=recipe_truth_table(recipe, n_ext),
            out=np.array([u.out for u in units], dtype=np.int64),
            ext=np.array([u.ext for u in units],
                         dtype=np.int64).reshape(len(units), n_ext),
            elem=np.array([[m[1] for m in u.members] for u in units],
                          dtype=np.int64),
        )
        fused.levels[li].append(group)
        for row, u in enumerate(units):
            fused.out_loc[u.out] = (li, gi, row)
            for mi, (mk, me, _a, _b) in enumerate(u.members):
                if mk != "dff":
                    fused.gate_loc[me] = (li, gi, row, mi)
            for nnet, mi in u.internal:
                fused.internal_loc[nnet] = (li, gi, row, mi)

    n_ops = prog.op_count()
    fused.stats = {
        "orig_levels": prog.n_levels,
        "fused_levels": max_lvl,
        "levels_fused": prog.n_levels - max_lvl,
        "units": len(roots),
        "super_gates": sum(1 for u in roots if len(u.members) > 1),
        "gates_absorbed": n_ops - len(roots),
        "ops": n_ops,
    }
    return fused


def _slot(net: int, ext: List[int]) -> int:
    """Index of ``net`` in the external slot list, appending if new."""
    try:
        return ext.index(net)
    except ValueError:
        ext.append(net)
        return len(ext) - 1


def _remap(code: int, child_ext: List[int], ext: List[int],
           offset: int) -> int:
    """Rebase one member src code when a child unit is absorbed."""
    if code < 0:
        return code - offset
    return _slot(child_ext[code], ext)


def fused_program(prog: CompiledNetlist) -> FusedProgram:
    """The program's fused super-gate graph, memoized on the program."""
    fused = getattr(prog, "_fused", None)
    if fused is None:
        fused = fuse_program(prog)
        prog._fused = fused  # type: ignore[attr-defined]
    return fused


# ----------------------------------------------------------------------
# Flat fused view for vectorized cone sweeps
# ----------------------------------------------------------------------
@dataclass
class _FusedFlat:
    """Level-ordered flat unit view: one row per super-gate.

    ``ext`` is padded to the widest slot count with the sentinel net id
    ``n_nets`` so the cone sweep's "any input affected" test is one
    fancy index over a boolean array with an always-False sentinel.
    """

    n_units: int
    out: np.ndarray
    ext: np.ndarray
    level_bounds: List[Tuple[int, int]]
    #: per level: (group, flat_start, flat_end)
    groups: List[List[Tuple[FusedGroup, int, int]]]


def _fused_flat(fused: FusedProgram) -> _FusedFlat:
    flat = getattr(fused, "_flat", None)
    if flat is not None:
        return flat
    kmax = max((g.n_ext for groups in fused.levels for g in groups),
               default=0)
    outs: List[np.ndarray] = []
    exts: List[np.ndarray] = []
    level_bounds: List[Tuple[int, int]] = []
    level_groups: List[List[Tuple[FusedGroup, int, int]]] = []
    pos = 0
    for groups in fused.levels:
        start = pos
        entries: List[Tuple[FusedGroup, int, int]] = []
        for g in groups:
            n = len(g.out)
            outs.append(g.out)
            padded = np.full((n, kmax), fused.n_nets, dtype=np.int64)
            padded[:, :g.n_ext] = g.ext
            exts.append(padded)
            entries.append((g, pos, pos + n))
            pos += n
        level_bounds.append((start, pos))
        level_groups.append(entries)
    flat = _FusedFlat(
        n_units=pos,
        out=(np.concatenate(outs) if outs
             else np.zeros(0, dtype=np.int64)),
        ext=(np.concatenate(exts) if exts
             else np.zeros((0, 0), dtype=np.int64)),
        level_bounds=level_bounds,
        groups=level_groups,
    )
    fused._flat = flat  # type: ignore[attr-defined]
    return flat


# ----------------------------------------------------------------------
# Event-driven cone evaluation
# ----------------------------------------------------------------------
@dataclass
class _EventOp:
    """One cone-restricted slice of a fused group, plus fault forces.

    ``ext_rows`` maps external inputs to cone rows (the sentinel
    ``n_rows`` for nets outside the row space — always clean); clean
    operands substitute golden straight from the bound lane-wave matrix
    by net id.  ``forced`` rows carry pin or member-output forces and
    are evaluated every chunk; ``row_masks`` holds those masks keyed by
    cone-row position within the op.  Output-net stuck masks
    (``out_pos``/``out_set``/``out_clr``) are *not* forced: the cone's
    pseudo-seed sweep realizes them from masked golden whenever the
    row's inputs are clean, and ``fo_base`` indexes the cone's global
    pseudo-seed block for the exact-claiming handshake.
    """

    recipe: Tuple[Tuple[str, int, int], ...]
    n_ext: int
    o0: int
    o1: int
    out_nets: np.ndarray
    ext_rows: np.ndarray
    ext_nets: np.ndarray
    obs: np.ndarray
    forced: np.ndarray
    is_dff: bool
    forced_any: bool = False
    out_pos: Optional[np.ndarray] = None
    out_set: Optional[np.ndarray] = None
    out_clr: Optional[np.ndarray] = None
    fo_base: Optional[np.ndarray] = None
    pf_idx: Optional[Dict[int, int]] = None
    row_masks: Dict[int, List[Tuple]] = field(default_factory=dict)
    carry: Optional[np.ndarray] = None
    carry_dirty: Optional[np.ndarray] = None
    dff_nets: Optional[np.ndarray] = None
    # Dense-sweep statics (slot-major gather indices, out-of-cone
    # substitution nets, observed-row positions) and lazy-carry state.
    flat_rows: Optional[np.ndarray] = None
    sent: Optional[np.ndarray] = None
    sent_nets: Optional[np.ndarray] = None
    sent_any: bool = False
    obs_idx: Optional[np.ndarray] = None
    obs_nets: Optional[np.ndarray] = None
    obs_any: bool = False
    lazy_t: Optional[int] = None
    carry_any: bool = False


class EventCone:
    """Event-driven evaluator for one multi-word fault batch.

    Driven by the grading loop (build, :meth:`bind_golden`,
    :meth:`evaluate_chunk` per time chunk, :meth:`compact` between
    chunks) over the batch's transitive fanout cone, but each chunk
    evaluates only the *frontier*: super-gates with a dirty input, a
    dirty flop carry, or a resident fault force.  Everything else is
    proven equal to golden without being computed, and a chunk with an
    empty frontier is skipped outright (``words_skipped``);
    ``frontier_rows`` accumulates the super-gate evaluations actually
    performed, ``dense_chunks`` / ``sparse_chunks`` the mode each
    evaluated chunk ran in.
    """

    def __init__(
        self,
        fused: FusedProgram,
        net_masks: Dict[int, Tuple],
        pin_masks: Dict[Tuple[int, int], Tuple],
        words: int = 1,
    ):
        self.fused = fused
        self.words = words
        self.frontier_rows = 0
        self.words_skipped = 0
        #: Chunks evaluated in each mode (skipped chunks count in
        #: ``words_skipped`` instead).
        self.dense_chunks = 0
        self.sparse_chunks = 0
        prog = fused.prog
        n_nets = fused.n_nets
        flat = _fused_flat(fused)

        # Net faults on fused-internal nets act as member-output forces
        # on their containing unit; every other masked net is marked
        # affected up front.
        internal_stuck = [n for n in net_masks if n in fused.internal_loc]
        ext_stuck = np.array(
            [n for n in net_masks if n not in fused.internal_loc],
            dtype=np.int64)

        affected = np.zeros(n_nets + 1, dtype=bool)
        affected[ext_stuck] = True
        forced_u = np.zeros(flat.n_units, dtype=bool)
        for gidx, _pin in pin_masks:
            li, gi, row, _m = fused.gate_loc[int(gidx)]
            forced_u[flat.groups[li][gi][1] + row] = True
        for net in internal_stuck:
            li, gi, row, _m = fused.internal_loc[int(net)]
            forced_u[flat.groups[li][gi][1] + row] = True

        sel_all = np.zeros(flat.n_units, dtype=bool)
        for s, e in flat.level_bounds:
            if s == e:
                continue
            sel = affected[flat.ext[s:e]].any(axis=1)
            sel |= forced_u[s:e]
            if not sel.any():
                continue
            sel_all[s:e] = sel
            affected[flat.out[s:e][sel]] = True

        driven = np.zeros(n_nets + 1, dtype=bool)
        driven[flat.out[sel_all]] = True
        is_stuck = np.zeros(n_nets + 1, dtype=bool)
        is_stuck[ext_stuck] = True
        is_output = np.zeros(n_nets + 1, dtype=bool)
        is_output[prog.output_bits] = True

        # Rows: evaluated units in (level, group, position) order, then
        # seed rows; clean reads substitute golden by net, so no
        # boundary rows are materialized at all.
        row_of = np.full(n_nets + 1, -1, dtype=np.int64)
        next_row = 0
        self.ops: List[_EventOp] = []
        opmap: Dict[Tuple[int, int], Tuple[_EventOp, np.ndarray]] = {}
        raw: List[Tuple[_EventOp, np.ndarray]] = []
        fo_rows_l: List[np.ndarray] = []
        fo_nets_l: List[np.ndarray] = []
        fo_ops: List[_EventOp] = []
        fo_off = 0
        for li, entries in enumerate(flat.groups):
            for gi, (group, s, e) in enumerate(entries):
                gsel = sel_all[s:e]
                if not gsel.any():
                    continue
                idx = np.nonzero(gsel)[0]
                out_nets = group.out[idx]
                ext_nets = group.ext[idx]
                o0 = next_row
                next_row += idx.size
                row_of[out_nets] = np.arange(o0, next_row)
                forced_rows = forced_u[s:e][idx].copy()
                op = _EventOp(
                    recipe=group.recipe,
                    n_ext=group.n_ext,
                    o0=o0, o1=next_row,
                    out_nets=out_nets,
                    ext_rows=ext_nets,  # remapped to rows below
                    ext_nets=ext_nets,
                    obs=is_output[out_nets],
                    forced=forced_rows,
                    is_dff=group.is_dff,
                )
                hit = is_stuck[out_nets]
                if hit.any():
                    # Output-net stucks join the pseudo-seed block
                    # instead of forcing the op: masked golden stands
                    # in whenever the row's inputs are clean.
                    pos = np.nonzero(hit)[0]
                    op.out_pos = pos
                    op.out_set = np.stack(
                        [_word_arr(net_masks[int(out_nets[p])][0])
                         for p in pos])
                    op.out_clr = np.stack(
                        [_word_arr(net_masks[int(out_nets[p])][1])
                         for p in pos])
                    op.fo_base = np.arange(fo_off, fo_off + pos.size)
                    fo_off += pos.size
                    fo_rows_l.append(o0 + pos)
                    fo_nets_l.append(out_nets[pos])
                    fo_ops.append(op)
                if op.is_dff:
                    op.carry = np.zeros((idx.size, words), dtype=np.uint64)
                    op.carry_dirty = np.zeros(idx.size, dtype=bool)
                opmap[(li, gi)] = (op, idx)
                raw.append((op, ext_nets))
                self.ops.append(op)

        for (gidx, pin), (mset, mclr) in pin_masks.items():
            li, gi, row, mi = fused.gate_loc[int(gidx)]
            op, idx = opmap[(li, gi)]
            p = int(np.searchsorted(idx, row))
            op.row_masks.setdefault(p, []).append(
                ("pin", mi, int(pin), _word_arr(mset), _word_arr(mclr)))
        for net in internal_stuck:
            li, gi, row, mi = fused.internal_loc[int(net)]
            op, idx = opmap[(li, gi)]
            p = int(np.searchsorted(idx, row))
            mset, mclr = net_masks[net]
            op.row_masks.setdefault(p, []).append(
                ("mout", mi, _word_arr(mset), _word_arr(mclr)))

        # Pin/member-masked rows are pseudo-seeds too: their clean-input
        # faulty waveform is precomputed once per stage (lazily, first
        # sparse chunk) by replaying the recipe over golden operands
        # with the masks applied, so no op is ever *forced* — a chunk
        # where no fault is excited skips outright.
        pf_rows_l: List[np.ndarray] = []
        pf_nets_l: List[np.ndarray] = []
        pf_off = 0
        self._pf_ops: List[Tuple[_EventOp, np.ndarray]] = []
        for op in self.ops:
            if op.row_masks:
                ps = np.array(sorted(op.row_masks), dtype=np.int64)
                op.pf_idx = {int(p): pf_off + j
                             for j, p in enumerate(ps)}
                pf_rows_l.append(op.o0 + ps)
                pf_nets_l.append(op.out_nets[ps])
                pf_off += ps.size
                self._pf_ops.append((op, ps))
        if pf_rows_l:
            self.pf_rows = np.concatenate(pf_rows_l)
            self.pf_nets = np.concatenate(pf_nets_l)
        else:
            self.pf_rows = np.zeros(0, dtype=np.int64)
            self.pf_nets = np.zeros(0, dtype=np.int64)
        self.pf_obs = is_output[self.pf_nets]
        self._pf_obs_any = bool(self.pf_obs.any())
        self._pf_claimed = np.zeros(pf_off, dtype=bool)
        self._pf = None
        self._pf_gold = None

        seed = (ext_stuck[~driven[ext_stuck]] if ext_stuck.size
                else ext_stuck)
        self.seed_nets = seed
        self.srow0 = next_row
        row_of[seed] = np.arange(next_row, next_row + seed.size)
        next_row += seed.size
        self.n_rows = next_row
        if seed.size:
            self.seed_set = np.stack(
                [_word_arr(net_masks[int(n)][0]) for n in seed])
            self.seed_clr = np.stack(
                [_word_arr(net_masks[int(n)][1]) for n in seed])
        else:
            self.seed_set = np.zeros((0, words), dtype=np.uint64)
            self.seed_clr = np.zeros((0, words), dtype=np.uint64)
        self.seed_obs = is_output[seed]

        # Pseudo-seed block: every out-masked unit row, globally.  The
        # sparse sweep realizes these rows from masked golden in one
        # vectorized pass (exactly like seeds); their op only evaluates
        # when its *inputs* go dirty, and claims back the rows it
        # recomputes so detection stays exact.
        if fo_rows_l:
            self.fo_rows = np.concatenate(fo_rows_l)
            self.fo_nets = np.concatenate(fo_nets_l)
            self.fo_set = np.concatenate([op.out_set for op in fo_ops])
            self.fo_clr = np.concatenate([op.out_clr for op in fo_ops])
            # Rows that also carry pin/member masks are owned by the
            # pf block (which stacks the out-mask on top) — drop them
            # here so each row lives in exactly one pseudo-seed block.
            pf_owned = set(self.pf_rows.tolist())
            if pf_owned:
                keep_fo = np.array(
                    [int(r) not in pf_owned for r in self.fo_rows],
                    dtype=bool)
                if not keep_fo.all():
                    remap = np.cumsum(keep_fo) - 1
                    for op in fo_ops:
                        op.fo_base = np.where(keep_fo[op.fo_base],
                                              remap[op.fo_base], -1)
                    self.fo_rows = self.fo_rows[keep_fo]
                    self.fo_nets = self.fo_nets[keep_fo]
                    self.fo_set = self.fo_set[keep_fo]
                    self.fo_clr = self.fo_clr[keep_fo]
        else:
            self.fo_rows = np.zeros(0, dtype=np.int64)
            self.fo_nets = np.zeros(0, dtype=np.int64)
            self.fo_set = np.zeros((0, words), dtype=np.uint64)
            self.fo_clr = np.zeros((0, words), dtype=np.uint64)
        self.fo_obs = is_output[self.fo_nets]
        self._fo_obs_any = bool(self.fo_obs.any())
        self._fo_claimed = np.zeros(self.fo_rows.size, dtype=bool)

        # Second pass: operand nets -> cone rows (sentinel n_rows when
        # outside the row space); golden reads stay lazy against the
        # bound lane-wave matrix, keyed by net id.
        for op, ext_nets in raw:
            rows = row_of[ext_nets]
            rows[rows < 0] = self.n_rows
            op.ext_rows = rows
            op.flat_rows = np.ascontiguousarray(rows.T).reshape(-1)
            sent = op.flat_rows == self.n_rows
            op.sent_any = bool(sent.any())
            if op.sent_any:
                op.sent = sent
                op.sent_nets = np.ascontiguousarray(
                    ext_nets.T).reshape(-1)[sent]
            oi = np.nonzero(op.obs)[0]
            op.obs_any = bool(oi.size)
            if op.obs_any:
                op.obs_idx = oi
                op.obs_nets = op.out_nets[oi]
            if op.is_dff:
                op.dff_nets = np.ascontiguousarray(ext_nets[:, 0])
        self._dff_ops = [op for op in self.ops if op.is_dff]
        self._carry_live = False
        self._dirty = np.zeros(self.n_rows + 1, dtype=bool)
        self.cone_nets = int(np.count_nonzero(affected[:n_nets]))

        # Reader CSR (cone row -> ops reading it): the sparse sweep
        # visits only ops marked by a producer whose output went dirty,
        # so chunks with a narrow frontier never even *test* the cold
        # part of the cone.
        if self.ops:
            rows_all = np.concatenate(
                [op.ext_rows.ravel() for op in self.ops])
            ops_all = np.repeat(
                np.arange(len(self.ops), dtype=np.int64),
                [op.ext_rows.size for op in self.ops])
            inside = rows_all < self.n_rows
            rows_all = rows_all[inside]
            ops_all = ops_all[inside]
            order = np.argsort(rows_all, kind="stable")
            self._rd_ops = ops_all[order]
            counts = np.bincount(rows_all, minlength=self.n_rows)
            self._rd_indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(counts, out=self._rd_indptr[1:])
        else:
            self._rd_ops = np.zeros(0, dtype=np.int64)
            self._rd_indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        self._cand = np.zeros(len(self.ops), dtype=bool)

        # Dense/sparse mode: a chunk whose frontier covers most of the
        # cone is cheaper evaluated densely over the fused program (no
        # selection, no substitution, golden compares only at observed
        # rows).  The first chunk follows ``dense_hint``; afterwards a
        # cost controller keeps an exponential moving average of the
        # measured per-chunk seconds of each mode and picks the cheaper
        # one.  While dense stays ahead, sparse probes are amortized:
        # one probe only after the dense time accumulated since the
        # last probe exceeds a few times the expected probe cost, so a
        # large cone with a wide frontier never burns a noticeable
        # fraction of its runtime rediscovering that sparse loses.
        # Both modes are exact, so the adaptive (machine-dependent)
        # choice never changes a verdict, a detection time or a
        # signature — only throughput.  Dense
        # chunks still whole-chunk skip: when the seed sweep comes back
        # clean and no carry is live, the pseudo-seed sweeps run and a
        # provably-golden chunk is skipped without touching the ops.
        self.dense_hint: Optional[bool] = None
        self._dense_next: Optional[bool] = None
        self._dense_accum = 0.0
        self._fr_mark = 0
        self._d_ms: Optional[float] = None
        self._s_ms: Optional[float] = None

    # ------------------------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop word columns whose 64 lanes are all detected."""
        self.words = int(np.count_nonzero(keep))
        self.seed_set = self.seed_set[:, keep]
        self.seed_clr = self.seed_clr[:, keep]
        self.fo_set = self.fo_set[:, keep]
        self.fo_clr = self.fo_clr[:, keep]
        if self._pf is not None:
            self._pf = np.ascontiguousarray(self._pf[:, keep, :])
        for op in self.ops:
            if op.carry is not None:
                op.carry = op.carry[:, keep]
            if op.out_set is not None:
                op.out_set = op.out_set[:, keep]
                op.out_clr = op.out_clr[:, keep]
            if op.row_masks:
                # Prune mask entries whose surviving words are all
                # zero: once every fault in a masked row's lanes is
                # detected and dropped, the row behaves like a plain
                # row and skips the per-row recompute entirely (its
                # pin-fault pseudo-seed likewise compares clean).
                masks = {}
                for p, entries in op.row_masks.items():
                    kept = []
                    for entry in entries:
                        mset = entry[-2][keep]
                        mclr = entry[-1][keep]
                        if mset.any() or mclr.any():
                            kept.append((entry[0], *entry[1:-2], mset,
                                         mclr))
                    if kept:
                        masks[p] = kept
                op.row_masks = masks

    def bind_golden(self, ws: ConeWorkspace, lane_waves: np.ndarray,
                    length: Optional[int] = None) -> None:
        """Bind the golden lane-wave matrix for this batch.

        Golden reads are lazy — per-op slices gather straight from the
        matrix by net id, so nothing cone-sized is copied up front.
        Only the two rows-needed-every-chunk blocks (seeds and the
        pseudo-seed out-mask rows) are gathered once.  ``length``
        bounds the graded prefix (defaults to the full waveform).
        """
        self._blen = int(length or lane_waves.shape[1])
        self._lw = lane_waves
        # Advanced indexing, not ``take``: the small row gathers stay
        # fast even if a caller hands a strided column-window view.
        self._sgold = lane_waves[self.seed_nets]
        self._fgold = lane_waves[self.fo_nets]
        self._pf = None
        self._pf_gold = None

    # ------------------------------------------------------------------
    def evaluate_chunk(self, ws: ConeWorkspace, t0: int,
                       t1: int) -> np.ndarray:
        """Frontier-driven evaluation of ``[t0, t1)``; per-word diffs.

        Bit ``j`` of returned word ``w`` is set when copy ``64 w + j``
        differs from golden at an observed output anywhere in the
        chunk.  Both modes — sparse frontier propagation and the dense
        fused sweep — are exact, so the adaptive mode choice never
        changes a verdict.
        """
        tstart = time.perf_counter()
        wc = self.words
        span = t1 - t0
        det = np.zeros(wc, dtype=np.uint64)
        dirty = self._dirty
        dirty[:] = False
        # One golden column-window view shared by every op this chunk.
        self._gsl = self._lw[:, t0:t1]
        w = ws.get("ev_nets", self.n_rows, wc, span)
        if self._dense_next is None:
            dense = True if self.dense_hint is None else bool(
                self.dense_hint)
        else:
            dense = self._dense_next

        # Seed rows first: their dirtiness is chunk-dependent (a
        # stuck-at force that matches the golden value all chunk is
        # clean), and they gate the whole-chunk skip.  The masked
        # waveform is written straight into the row space — for clean
        # seeds it *is* the golden waveform, so dense readers need no
        # substitution.
        n_seed = int(self.seed_nets.size)
        seeds_dirty = False
        srd = None
        if n_seed:
            sg = self._sgold[:, t0:t1]
            sf = w[self.srow0:self.srow0 + n_seed]
            np.bitwise_or(sg[:, None, :], self.seed_set[:, :, None],
                          out=sf)
            np.bitwise_and(sf, ~self.seed_clr[:, :, None], out=sf)
            sd = ws.get("ev_sdiff", n_seed, wc, span)
            np.bitwise_xor(sf, sg[:, None, :], out=sd)
            sdw = np.bitwise_or.reduce(sd, axis=2)
            srd = sdw.any(axis=1)
            if srd.any():
                seeds_dirty = True
                dirty[self.srow0:self.srow0 + n_seed] = srd
                ohit = self.seed_obs & srd
                if ohit.any():
                    det |= np.bitwise_or.reduce(sdw[ohit], axis=0)

        # Pseudo-seed sweeps: out-masked rows realized from masked
        # golden, pin/member-masked rows from their precomputed
        # clean-input faulty waveforms, both in one vectorized pass.
        # Sparse chunks always need them (the rows stand in as extra
        # seeds for the op loop; ops that run claim back the rows they
        # recompute exactly, so the end-of-chunk settle only credits
        # unclaimed rows).  Dense chunks recompute every masked row
        # exactly and need neither values nor settle — they run the
        # sweeps only while a whole-chunk skip is still plausible
        # (seeds clean, no live carry), keeping the dense hot path
        # untouched when the cone is visibly excited.
        n_fo = int(self.fo_rows.size)
        n_pf = int(self.pf_rows.size)
        pseudo_dirty = pf_dirty = False
        # A dense skip attempt additionally requires the pin-fault
        # waveforms to be materialized already (a sparse chunk pays
        # that once); dense never fronts the materialization cost.
        if (not dense) or (not (seeds_dirty or self._carry_live)
                           and (n_pf == 0 or self._pf is not None)):
            if n_fo:
                fg = self._fgold[:, t0:t1]
                ff = ws.get("ev_fo", n_fo, wc, span)
                np.bitwise_or(fg[:, None, :], self.fo_set[:, :, None],
                              out=ff)
                np.bitwise_and(ff, ~self.fo_clr[:, :, None], out=ff)
                fd = ws.get("ev_fdiff", n_fo, wc, span)
                np.bitwise_xor(ff, fg[:, None, :], out=fd)
                fdw = np.bitwise_or.reduce(fd, axis=2)
                frd = fdw.any(axis=1)
                w[self.fo_rows] = ff
                dirty[self.fo_rows] = frd
                self._fo_dw = fdw
                self._fo_rd = frd
                self._fo_claimed[:] = False
                if frd.any():
                    pseudo_dirty = True

            if n_pf:
                if self._pf is None:
                    self._materialize_pf()
                pfv = self._pf[:, :, t0:t1]
                pd = ws.get("ev_pdiff", n_pf, wc, span)
                np.bitwise_xor(pfv, self._pf_gold[:, None, t0:t1],
                               out=pd)
                pdw = np.bitwise_or.reduce(pd, axis=2)
                prd = pdw.any(axis=1)
                w[self.pf_rows] = pfv
                dirty[self.pf_rows] = prd
                self._pf_dw = pdw
                self._pf_rd = prd
                self._pf_claimed[:] = False
                if prd.any():
                    pf_dirty = True

            if not (seeds_dirty or pseudo_dirty or pf_dirty
                    or self._carry_live):
                # Empty frontier: every net provably equals golden over
                # the chunk (no fault is excited), so skip it outright
                # — in either mode.  Flop carries are *lazily* golden:
                # only a timestamp is recorded, and the golden d value
                # is materialized if the flop is ever evaluated again.
                self.words_skipped += wc
                for op in self._dff_ops:
                    op.lazy_t = t1
                self._fr_mark = self.frontier_rows
                self._mode_feedback(False, time.perf_counter() - tstart)
                return det

        if dense:
            self.dense_chunks += 1
            self.frontier_rows += self.srow0
            for op in self.ops:
                if op.is_dff:
                    self._eval_dff_dense(op, ws, w, det, t0, t1)
                else:
                    self._eval_gate_dense(op, ws, w, det, t0, t1)
            self._fr_mark = self.frontier_rows
            self._carry_live = any(
                op.carry_any for op in self._dff_ops)
            self._mode_feedback(True, time.perf_counter() - tstart)
            return det

        self.sparse_chunks += 1
        cand = self._cand
        cand[:] = False
        if seeds_dirty:
            self._mark_readers(np.nonzero(srd)[0] + self.srow0)
        if pseudo_dirty:
            self._mark_readers(self.fo_rows[frd])
        if pf_dirty:
            self._mark_readers(self.pf_rows[prd])
        for i, op in enumerate(self.ops):
            if op.is_dff:
                if cand[i] or op.carry_any:
                    self._eval_dff(op, ws, w, dirty, det, t0, t1)
                else:
                    op.lazy_t = t1
            elif cand[i]:
                self._eval_gate(op, ws, w, dirty, det, t0, t1)
        if n_fo and self._fo_obs_any:
            ob = self.fo_obs & self._fo_rd & ~self._fo_claimed
            if ob.any():
                det |= np.bitwise_or.reduce(self._fo_dw[ob], axis=0)
        if n_pf and self._pf_obs_any:
            ob = self.pf_obs & self._pf_rd & ~self._pf_claimed
            if ob.any():
                det |= np.bitwise_or.reduce(self._pf_dw[ob], axis=0)
        frac = ((self.frontier_rows - self._fr_mark)
                / max(1, self.srow0))
        self._fr_mark = self.frontier_rows
        self._carry_live = any(op.carry_any for op in self._dff_ops)
        self._mode_feedback(False, time.perf_counter() - tstart,
                            frac=frac)
        return det

    # ------------------------------------------------------------------
    def _mode_feedback(self, dense: bool, dt: float,
                       frac: Optional[float] = None) -> None:
        """Cost-based mode controller: pick the measured-cheaper mode.

        Each chunk feeds its wall-clock seconds into a per-mode
        exponential moving average; the next chunk runs the cheaper
        mode.  While dense stays ahead, sparse probes are amortized
        against the expected probe cost (last sparse EWMA, or a 4x
        dense estimate before any sparse sample exists): a probe fires
        only once the dense time accumulated since the last probe
        exceeds three times that estimate, bounding probe overhead to
        a small fraction of wall-clock even on cones whose frontier
        stays wide forever.  Sparsity is phase-dependent — a cone that
        goes quiet mid-stimulus is still rediscovered by the periodic
        probe — and a skipped chunk counts as a (near-free) sparse
        sample, so skip-heavy cones lock into sparse.  Before any
        dense sample exists the sparse frontier fraction decides,
        mirroring the old fixed-threshold policy.
        """
        if dense:
            self._d_ms = (dt if self._d_ms is None
                          else 0.5 * (self._d_ms + dt))
            self._dense_accum += dt
            if self._s_ms is not None and self._s_ms < 0.9 * self._d_ms:
                self._dense_next = False
            else:
                probe_cost = (self._s_ms if self._s_ms is not None
                              else 4.0 * self._d_ms)
                if self._dense_accum >= 3.0 * probe_cost:
                    self._dense_next = False
                    self._dense_accum = 0.0
                else:
                    self._dense_next = True
        else:
            self._s_ms = (dt if self._s_ms is None
                          else 0.5 * (self._s_ms + dt))
            if self._d_ms is None:
                self._dense_next = frac is not None and frac > 0.3
            else:
                self._dense_next = self._s_ms >= 0.9 * self._d_ms

    # ------------------------------------------------------------------
    def _mark_readers(self, rows: np.ndarray) -> None:
        """Flag every op reading ``rows`` as a sparse-sweep candidate."""
        ip = self._rd_indptr
        s = ip[rows]
        ln = ip[rows + 1] - s
        tot = int(ln.sum())
        if not tot:
            return
        cs = np.cumsum(ln)
        flat = np.arange(tot, dtype=np.int64) + np.repeat(s - (cs - ln),
                                                          ln)
        self._cand[self._rd_ops[flat]] = True

    def _eval_gate(self, op: _EventOp, ws: ConeWorkspace, w: np.ndarray,
                   dirty: np.ndarray, det: np.ndarray, t0: int,
                   t1: int) -> None:
        dirt = dirty[op.ext_rows]
        sel = dirt.any(axis=1)
        if not sel.any():
            return
        idx = np.nonzero(sel)[0]
        n = idx.size
        self.frontier_rows += n
        wc = self.words
        span = t1 - t0
        k = op.n_ext

        # Slot-major operand gather with golden substitution for clean
        # rows: ab[j] is external slot j's (n, words, span) block.
        rows = op.ext_rows[idx]
        ab = ws.get("ev_ext", k * n, wc, span)
        w.take(rows.T.reshape(-1), 0, ab, "clip")
        cleanf = ~dirt[idx].T.reshape(-1)
        if cleanf.any():
            nets = op.ext_nets[idx].T.reshape(-1)[cleanf]
            ab[cleanf] = self._gsl[nets][:, None, :]
        ext_view = ab.reshape(k, n, wc, span)

        m_res: List[np.ndarray] = []
        for j, (kind, s0, s1) in enumerate(op.recipe):
            a = ext_view[s0] if s0 >= 0 else m_res[-s0 - 1]
            out_buf = ws.get(_MKEYS[j], n, wc, span)
            if kind == "xor":
                np.bitwise_xor(a, ext_view[s1] if s1 >= 0
                               else m_res[-s1 - 1], out=out_buf)
            elif kind == "and":
                np.bitwise_and(a, ext_view[s1] if s1 >= 0
                               else m_res[-s1 - 1], out=out_buf)
            elif kind == "or":
                np.bitwise_or(a, ext_view[s1] if s1 >= 0
                              else m_res[-s1 - 1], out=out_buf)
            elif kind == "not":
                np.invert(a, out=out_buf)
            else:  # buf
                np.copyto(out_buf, a)
            m_res.append(out_buf)
        v = m_res[-1]

        # Pin/member-masked rows are recomputed alone (masks applied
        # mid-recipe) only when selected — and claimed back from the
        # pf pseudo-seed block so the chunk-end settle stays exact.
        for p, entries in op.row_masks.items():
            fp = int(np.searchsorted(idx, p))
            if fp < idx.size and idx[fp] == p:
                v[fp] = self._recompute_row(op, ext_view, fp, entries)
                self._pf_claimed[op.pf_idx[p]] = True
        self._finish_rows(op, ws, w, dirty, det, v, idx, t0, t1)

    def _eval_dff(self, op: _EventOp, ws: ConeWorkspace, w: np.ndarray,
                  dirty: np.ndarray, det: np.ndarray, t0: int,
                  t1: int) -> None:
        gold_last = self._lw[op.dff_nets, t1 - 1]
        sel = dirty[op.ext_rows[:, 0]] | op.carry_dirty
        if not sel.any():
            # Clean flops still track golden carries across chunks,
            # lazily (materialized only if evaluated again).
            op.lazy_t = t1
            op.carry_any = False
            return
        self._materialize_carry(op)
        idx = np.nonzero(sel)[0]
        n = idx.size
        self.frontier_rows += n
        wc = self.words
        span = t1 - t0
        rows = op.ext_rows[idx, 0]
        a = ws.get("ev_ext", n, wc, span)
        w.take(rows, 0, a, "clip")
        clean = ~dirty[rows]
        if clean.any():
            a[clean] = self._gsl[op.dff_nets[idx][clean]][
                :, None, :]
        v = ws.get("ev_m0", n, wc, span)
        v[:, :, 1:] = a[:, :, :-1]
        v[:, :, 0] = op.carry[idx]
        new_carry = a[:, :, -1].copy()
        op.carry[:] = gold_last[:, None]
        op.carry[idx] = new_carry
        op.carry_dirty[:] = False
        op.carry_dirty[idx] = (
            new_carry != gold_last[idx][:, None]).any(axis=1)
        op.carry_any = bool(op.carry_dirty.any())
        self._finish_rows(op, ws, w, dirty, det, v, idx, t0, t1)

    def _materialize_pf(self) -> None:
        """Precompute clean-input faulty waveforms for masked rows.

        Replays each masked row's recipe over its golden operand
        waveforms with the pin/member masks (and any output stuck on
        top) applied — once per stage, reused by every chunk whose
        inputs stay clean.
        """
        lw = self._lw[:, :self._blen]
        length = self._blen
        wc = self.words
        pf = np.empty((self.pf_rows.size, wc, length), dtype=np.uint64)
        self._pf_gold = lw[self.pf_nets]
        for op, ps in self._pf_ops:
            gops = lw[op.ext_nets[ps]]
            for j, p in enumerate(ps):
                p = int(p)
                # compact() prunes positions whose surviving mask
                # words are all zero — their clean-input replay is
                # just the golden waveform.
                v = self._recompute_row(
                    op,
                    np.broadcast_to(gops[j][:, None, None, :],
                                    (op.n_ext, 1, wc, length)),
                    0, op.row_masks.get(p, []))
                if op.out_pos is not None:
                    hit = np.nonzero(op.out_pos == p)[0]
                    if hit.size:
                        h = int(hit[0])
                        v = ((v | op.out_set[h][:, None])
                             & ~op.out_clr[h][:, None])
                pf[op.pf_idx[p]] = v
        self._pf = pf

    def _materialize_carry(self, op: _EventOp) -> None:
        """Realize a lazily-golden carry before the flop is evaluated."""
        if op.lazy_t is not None:
            op.carry[:] = self._lw[op.dff_nets, op.lazy_t - 1][:, None]
            op.carry_dirty[:] = False
            op.lazy_t = None

    def _finish_rows(self, op: _EventOp, ws: ConeWorkspace,
                     w: np.ndarray, dirty: np.ndarray, det: np.ndarray,
                     v: np.ndarray, idx: np.ndarray, t0: int,
                     t1: int) -> None:
        """Apply output forces, detect reconvergence, scatter results."""
        if op.out_pos is not None:
            # Out-masked rows are only recomputed when selected; the
            # rest keep their pseudo-seed value.  Recomputed rows are
            # claimed so the chunk-end settle doesn't double-count.
            loc = np.searchsorted(idx, op.out_pos)
            np.minimum(loc, idx.size - 1, out=loc)
            inin = idx[loc] == op.out_pos
            if inin.any():
                mp = loc[inin]
                v[mp] = ((v[mp] | op.out_set[inin][:, :, None])
                         & ~op.out_clr[inin][:, :, None])
                fb = op.fo_base[inin]
                self._fo_claimed[fb[fb >= 0]] = True
        gold = self._gsl[op.out_nets[idx]]
        dbuf = ws.get("ev_diff", idx.size, self.words, t1 - t0)
        np.bitwise_xor(v, gold[:, None, :], out=dbuf)
        dw = np.bitwise_or.reduce(dbuf, axis=2)
        rd = dw.any(axis=1)
        # Set *and clear*: a recomputed-clean row may carry stale
        # pseudo-seed dirt from earlier in this chunk.
        dirty[op.o0 + idx] = rd
        if not rd.any():
            return
        rows = op.o0 + idx[rd]
        w[rows] = v[rd]
        self._mark_readers(rows)
        ob = op.obs[idx] & rd
        if ob.any():
            det |= np.bitwise_or.reduce(dw[ob], axis=0)

    # ------------------------------------------------------------------
    # Dense fused sweep: every unit evaluated, no selection, no
    # substitution (in-cone operand rows are all valid, out-of-cone
    # slots read golden through a static mask), golden compares only at
    # observed rows.  Exact, like the sparse sweep — just cheaper when
    # the frontier covers most of the cone.
    # ------------------------------------------------------------------
    def _eval_gate_dense(self, op: _EventOp, ws: ConeWorkspace,
                         w: np.ndarray, det: np.ndarray, t0: int,
                         t1: int) -> None:
        n = op.o1 - op.o0
        wc = self.words
        span = t1 - t0
        k = op.n_ext
        ab = ws.get("ev_ext", k * n, wc, span)
        w.take(op.flat_rows, 0, ab, "clip")
        if op.sent_any:
            ab[op.sent] = self._gsl[op.sent_nets][:, None, :]
        ext_view = ab.reshape(k, n, wc, span)
        vout = w[op.o0:op.o1]
        last = len(op.recipe) - 1
        m_res: List[np.ndarray] = []
        for j, (kind, s0, s1) in enumerate(op.recipe):
            a = ext_view[s0] if s0 >= 0 else m_res[-s0 - 1]
            out_buf = vout if j == last else ws.get(_MKEYS[j], n, wc,
                                                    span)
            if kind == "xor":
                np.bitwise_xor(a, ext_view[s1] if s1 >= 0
                               else m_res[-s1 - 1], out=out_buf)
            elif kind == "and":
                np.bitwise_and(a, ext_view[s1] if s1 >= 0
                               else m_res[-s1 - 1], out=out_buf)
            elif kind == "or":
                np.bitwise_or(a, ext_view[s1] if s1 >= 0
                              else m_res[-s1 - 1], out=out_buf)
            elif kind == "not":
                np.invert(a, out=out_buf)
            else:  # buf
                np.copyto(out_buf, a)
            m_res.append(out_buf)
        for p, entries in op.row_masks.items():
            vout[p] = self._recompute_row(op, ext_view, p, entries)
        if op.out_pos is not None:
            vout[op.out_pos] = ((vout[op.out_pos]
                                 | op.out_set[:, :, None])
                                & ~op.out_clr[:, :, None])
        if op.obs_any:
            self._dense_obs(op, ws, vout, det, t0, t1)

    def _eval_dff_dense(self, op: _EventOp, ws: ConeWorkspace,
                        w: np.ndarray, det: np.ndarray, t0: int,
                        t1: int) -> None:
        n = op.o1 - op.o0
        wc = self.words
        span = t1 - t0
        self._materialize_carry(op)
        a = ws.get("ev_ext", n, wc, span)
        w.take(op.flat_rows, 0, a, "clip")
        if op.sent_any:
            a[op.sent] = self._gsl[op.sent_nets][:, None, :]
        vout = w[op.o0:op.o1]
        vout[:, :, 1:] = a[:, :, :-1]
        vout[:, :, 0] = op.carry
        gold_last = self._lw[op.dff_nets, t1 - 1]
        np.copyto(op.carry, a[:, :, -1])
        np.any(op.carry != gold_last[:, None], axis=1,
               out=op.carry_dirty)
        op.carry_any = bool(op.carry_dirty.any())
        if op.out_pos is not None:
            vout[op.out_pos] = ((vout[op.out_pos]
                                 | op.out_set[:, :, None])
                                & ~op.out_clr[:, :, None])
        if op.obs_any:
            self._dense_obs(op, ws, vout, det, t0, t1)

    def _dense_obs(self, op: _EventOp, ws: ConeWorkspace,
                   vout: np.ndarray, det: np.ndarray, t0: int,
                   t1: int) -> None:
        oi = op.obs_idx
        dbuf = ws.get("ev_diff", oi.size, self.words, t1 - t0)
        np.bitwise_xor(vout[oi],
                       self._gsl[op.obs_nets][:, None, :],
                       out=dbuf)
        det |= np.bitwise_or.reduce(
            np.bitwise_or.reduce(dbuf, axis=2), axis=0)

    def _recompute_row(self, op: _EventOp, ext_view: np.ndarray,
                       fp: int, entries: List[Tuple]) -> np.ndarray:
        """Replay one row's recipe with its pin/member forces applied."""
        pin_of: Dict[Tuple[int, int], Tuple] = {}
        mout_of: Dict[int, Tuple] = {}
        for entry in entries:
            if entry[0] == "pin":
                _tag, mi, pin, mset, mclr = entry
                pin_of[(mi, pin)] = (mset, mclr)
            else:
                _tag, mi, mset, mclr = entry
                mout_of[mi] = (mset, mclr)
        vals: List[np.ndarray] = []
        for j, (kind, s0, s1) in enumerate(op.recipe):
            def operand(code: int, pin: int) -> np.ndarray:
                base = (ext_view[code][fp] if code >= 0
                        else vals[-code - 1])
                pm = pin_of.get((j, pin))
                if pm is not None:
                    base = (base | pm[0][:, None]) & ~pm[1][:, None]
                return base
            a = operand(s0, 0)
            if kind == "xor":
                r = a ^ operand(s1, 1)
            elif kind == "and":
                r = a & operand(s1, 1)
            elif kind == "or":
                r = a | operand(s1, 1)
            elif kind == "not":
                r = ~a
            else:  # buf
                r = a.copy()
            mm = mout_of.get(j)
            if mm is not None:
                r = (r | mm[0][:, None]) & ~mm[1][:, None]
            vals.append(r)
        return vals[-1]
