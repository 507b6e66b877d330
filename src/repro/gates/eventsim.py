"""Fused cone sweep: exact fault evaluation over LUT super-gates.

This module is the cone engine (``event``) behind
:func:`repro.gates.fault_parallel.gate_level_missed`:

* **super-gate fusion** (:func:`fuse_program`) — at program-compile
  time, chains of single-fanout gates spanning up to
  :data:`MAX_FUSE_DEPTH` consecutive levels are fused into LUT
  super-gates of at most :data:`MAX_FUSE_INPUTS` external inputs and
  :data:`MAX_FUSE_MEMBERS` member gates.  Units sharing a level, an
  input count and a recipe batch into one vectorized group, and the
  re-levelized super-gate graph has fewer levels than the original
  program, cutting the per-level dispatch count.  Packed 64-lane words
  evaluate a super-gate by replaying its fused recipe (2-5 bitwise
  ops).

* **cone sweep** (:class:`EventCone`) — a fault batch evaluates only
  the transitive fanout cone of its fault sites, renumbered into a
  private row space.  Each time chunk fills the row space's boundary
  rows (one per distinct out-of-cone operand net) from the golden
  waveform matrix, then evaluates every super-gate of that cone once,
  in level order, each recipe member as one ufunc over all the op's
  rows; fault forces patch only their own rows after the member that
  reads or drives the forced line.  Faulty values are compared against
  golden only at observed outputs.

:class:`EventCone` exposes a small driver contract (``bind_golden`` /
``evaluate_chunk`` / ``compact``); the grading loop in
:mod:`repro.gates.fault_parallel` — iterative deepening, per-word fault
dropping, chunk-end detection times — lives outside it.  The sweep
reads no clock, so the work it does and every counter it reports are
a function of the design, the stimulus, the faults and the driver's
schedule alone.  Super-gate rows evaluated surface as the telemetry
counter ``gates.frontier_nets``, levels removed by fusion as
``gates.lut_fused_levels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .compiled import (
    CompiledNetlist,
    ConeWorkspace,
    _TWO_INPUT,
    _flat_program,
)

__all__ = [
    "MAX_FUSE_DEPTH",
    "MAX_FUSE_INPUTS",
    "MAX_FUSE_MEMBERS",
    "FusedGroup",
    "FusedProgram",
    "EventCone",
    "LineMasks",
    "fuse_program",
    "fused_program",
]

#: Maximum original gate levels absorbed into one super-gate.
MAX_FUSE_DEPTH = 3

#: Maximum distinct external input nets per super-gate: the operand
#: gather budget, since every evaluated row gathers one waveform per
#: external input each chunk.
MAX_FUSE_INPUTS = 6

#: Maximum member gates per super-gate recipe.
MAX_FUSE_MEMBERS = 5

#: Pre-built workspace-buffer names for recipe-member temporaries —
#: the chunk loop runs hot enough that per-op f-string formatting of
#: buffer keys shows up in profiles.
_MKEYS = tuple(f"ev_m{j}" for j in range(MAX_FUSE_MEMBERS))


@dataclass
class FusedGroup:
    """All super-gates of one level sharing one recipe.

    ``recipe`` is the member-op sequence: members are
    ``(kind, src0, src1)`` with ``src >= 0`` naming an external slot and
    ``src < 0`` the earlier member ``-(src + 1)``; one-input kinds
    mirror ``src0`` into ``src1``.  ``out`` / ``ext`` / ``elem`` are
    parallel arrays over the group's units: final output net, external
    input nets (every unit has exactly ``n_ext`` distinct ones — the
    slot count is part of the group key) and the original gate/dff
    indices of each member.
    """

    recipe: Tuple[Tuple[str, int, int], ...]
    n_ext: int
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
#: The ufunc that evaluates each recipe kind over packed lane words.
_UFUNCS = {
    "xor": np.bitwise_xor,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "not": np.invert,
    "buf": np.positive,
}


def _steps(recipe: Tuple[Tuple[str, int, int], ...]
           ) -> Tuple[Tuple[np.ufunc, int, Optional[int]], ...]:
    """A recipe as ``(ufunc, src0, src1)`` steps, ``src1`` ``None`` for
    one-input kinds; a flop recipe has none."""
    return tuple((_UFUNCS[kind], s0, s1 if kind in _TWO_INPUT else None)
                 for kind, s0, s1 in recipe if kind != "dff")


@dataclass
class _FusedFlat:
    """Level-ordered flat unit view: one row per super-gate.

    ``ext`` is padded to the widest slot count with the sentinel net id
    ``n_nets`` so cone selection's "any input affected" test is one
    fancy index over a boolean array with an always-False sentinel.
    Groups are numbered in (level, group) order: ``unit_group`` names
    each unit's group, ``group_list`` / ``group_n_ext`` /
    ``group_members`` describe each group and ``group_steps`` holds its
    recipe resolved to ufuncs.  ``gate_unit`` / ``gate_member`` locate
    every original gate (the pin-fault map), and ``internal_unit`` /
    ``internal_member`` every fused-internal net (``-1`` for other
    nets).
    """

    n_units: int
    out: np.ndarray
    ext: np.ndarray
    level_bounds: List[Tuple[int, int]]
    unit_group: np.ndarray
    group_list: List[FusedGroup]
    group_n_ext: np.ndarray
    group_members: np.ndarray
    group_steps: List[Tuple]
    gate_unit: np.ndarray
    gate_member: np.ndarray
    internal_unit: np.ndarray
    internal_member: np.ndarray


def _fused_flat(fused: FusedProgram) -> _FusedFlat:
    flat = getattr(fused, "_flat", None)
    if flat is not None:
        return flat
    kmax = max((g.n_ext for groups in fused.levels for g in groups),
               default=0)
    outs: List[np.ndarray] = []
    exts: List[np.ndarray] = []
    level_bounds: List[Tuple[int, int]] = []
    group_list: List[FusedGroup] = []
    group_start: List[int] = []
    group_of: Dict[Tuple[int, int], int] = {}
    pos = 0
    for li, groups in enumerate(fused.levels):
        start = pos
        for gi, g in enumerate(groups):
            n = len(g.out)
            outs.append(g.out)
            padded = np.full((n, kmax), fused.n_nets, dtype=np.int64)
            padded[:, :g.n_ext] = g.ext
            exts.append(padded)
            group_of[(li, gi)] = len(group_list)
            group_list.append(g)
            group_start.append(pos)
            pos += n
        level_bounds.append((start, pos))
    starts = np.array(group_start, dtype=np.int64)
    sizes = np.array([len(g.out) for g in group_list], dtype=np.int64)

    def locate(locs: Dict[int, Tuple[int, int, int, int]], size: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        unit = np.full(size, -1, dtype=np.int64)
        member = np.full(size, -1, dtype=np.int64)
        for key, (li, gi, row, mi) in locs.items():
            unit[key] = starts[group_of[(li, gi)]] + row
            member[key] = mi
        return unit, member

    gate_unit, gate_member = locate(
        fused.gate_loc, max(fused.gate_loc, default=-1) + 1)
    internal_unit, internal_member = locate(fused.internal_loc,
                                            fused.n_nets + 1)
    flat = _FusedFlat(
        n_units=pos,
        out=(np.concatenate(outs) if outs
             else np.zeros(0, dtype=np.int64)),
        ext=(np.concatenate(exts) if exts
             else np.zeros((0, 0), dtype=np.int64)),
        level_bounds=level_bounds,
        unit_group=np.repeat(np.arange(len(group_list)), sizes),
        group_list=group_list,
        group_n_ext=np.array([g.n_ext for g in group_list],
                             dtype=np.int64),
        group_members=np.array([g.n_members for g in group_list],
                               dtype=np.int64),
        group_steps=[_steps(g.recipe) for g in group_list],
        gate_unit=gate_unit,
        gate_member=gate_member,
        internal_unit=internal_unit,
        internal_member=internal_member,
    )
    fused._flat = flat  # type: ignore[attr-defined]
    return flat


# ----------------------------------------------------------------------
# Cone sweep
# ----------------------------------------------------------------------
def _lanes(rows: np.ndarray) -> np.ndarray:
    """Boolean golden rows widened to all-ones/all-zeros lane words."""
    words = rows.astype(np.uint64)
    return np.negative(words, out=words)


@dataclass
class LineMasks:
    """Set/clear lane words of every stuck line of one fault batch.

    ``net`` lists the stuck nets, ``net_set`` / ``net_clr`` their
    ``(lines, words)`` set and clear words; ``pin_gate`` / ``pin`` and
    ``pin_set`` / ``pin_clr`` do the same for stuck gate input pins.
    Each line appears once.
    """

    net: np.ndarray
    net_set: np.ndarray
    net_clr: np.ndarray
    pin_gate: np.ndarray
    pin: np.ndarray
    pin_set: np.ndarray
    pin_clr: np.ndarray


class _Forces:
    """Every fault force on one member of an op, as row arrays.

    ``pin_rows`` are the op rows with a stuck input pin on this member;
    ``a_set`` / ``a_nclr`` and ``b_set`` / ``b_nclr`` are those rows'
    set words and inverted clear words for pin 0 and pin 1, shaped
    ``(rows, words, 1)`` (``None`` when no row forces that pin).
    ``out_rows`` / ``out_set`` / ``out_nclr`` force the member's output:
    a fused-internal net, or on the last member the unit's output net.
    """

    __slots__ = ("pin_rows", "a_set", "a_nclr", "b_set", "b_nclr",
                 "out_rows", "out_set", "out_nclr")

    def __init__(self) -> None:
        self.pin_rows = self.a_set = self.a_nclr = None
        self.b_set = self.b_nclr = None
        self.out_rows = self.out_set = self.out_nclr = None

    def apply(self, fn: Optional[np.ufunc], a: Optional[np.ndarray],
              b: Optional[np.ndarray], out: np.ndarray) -> None:
        """Patch ``out`` after the member's ufunc ``fn`` read ``a`` and
        ``b``: rows with a stuck pin are recomputed from their forced
        operands (so the force reaches this member's read only), then
        the member's output forces apply."""
        if self.pin_rows is not None:
            x = a[self.pin_rows]
            if self.a_set is not None:
                x |= self.a_set
                x &= self.a_nclr
            if b is None:
                fn(x, out=x)
            else:
                y = b[self.pin_rows]
                if self.b_set is not None:
                    y |= self.b_set
                    y &= self.b_nclr
                fn(x, y, out=x)
            out[self.pin_rows] = x
        if self.out_rows is not None:
            y = out[self.out_rows]
            y |= self.out_set
            y &= self.out_nclr
            out[self.out_rows] = y

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the word columns ``keep`` selects."""
        for name in ("a_set", "a_nclr", "b_set", "b_nclr", "out_set",
                     "out_nclr"):
            words = getattr(self, name)
            if words is not None:
                setattr(self, name, words[:, keep])


def _group_forces(op: np.ndarray, member: np.ndarray, row: np.ndarray,
                  kind: np.ndarray, mset: np.ndarray, mclr: np.ndarray):
    """Yield ``(op, member, forces)`` for every forced op member.

    One entry per stuck line: the op, the member it forces, the row
    within the op, ``kind`` (0 or 1 for a pin, 2 for the member's
    output) and the line's ``(words,)`` set and clear words.  A row that
    forces both pins of one member gets one recompute row.
    """
    key = op * MAX_FUSE_MEMBERS + member
    pin = kind < 2
    stride = int(row.max(initial=0)) + 1
    prow, at = np.unique(key[pin] * stride + row[pin], return_inverse=True)
    pin_key = prow // stride
    pwords = np.zeros((2, 2, prow.size, mset.shape[1]), dtype=np.uint64)
    pwords[kind[pin], 0, at] = mset[pin]
    pwords[kind[pin], 1, at] = mclr[pin]
    pwords[:, 1] = ~pwords[:, 1]
    pwords = pwords[..., None]
    forced_pin = np.zeros((2, prow.size), dtype=bool)
    forced_pin[kind[pin], at] = True
    out = np.flatnonzero(~pin)
    out = out[np.argsort(key[out], kind="stable")]
    out_key = key[out]
    out_set = mset[out][:, :, None]
    out_nclr = ~mclr[out][:, :, None]
    keys = np.union1d(pin_key, out_key)
    for k, p0, p1, q0, q1 in zip(
            keys.tolist(),
            np.searchsorted(pin_key, keys).tolist(),
            np.searchsorted(pin_key, keys, "right").tolist(),
            np.searchsorted(out_key, keys).tolist(),
            np.searchsorted(out_key, keys, "right").tolist()):
        forces = _Forces()
        if p1 > p0:
            forces.pin_rows = prow[p0:p1] % stride
            if forced_pin[0, p0:p1].any():
                forces.a_set, forces.a_nclr = pwords[0, :, p0:p1]
            if forced_pin[1, p0:p1].any():
                forces.b_set, forces.b_nclr = pwords[1, :, p0:p1]
        if q1 > q0:
            forces.out_rows = row[out[q0:q1]]
            forces.out_set = out_set[q0:q1]
            forces.out_nclr = out_nclr[q0:q1]
        yield k // MAX_FUSE_MEMBERS, k % MAX_FUSE_MEMBERS, forces


class _EventOp:
    """One cone-restricted slice of a fused group, plus fault forces.

    The op's units occupy cone rows ``[o0, o1)``.  ``flat_rows`` is the
    slot-major gather index of their operands in the row space, where
    every operand has a row: a cone unit, a seed or a boundary row.
    ``steps`` is the group's recipe resolved to ufuncs, ``forces`` the
    :class:`_Forces` of each member (``None`` for unforced members), and
    ``obs_idx`` / ``obs_nets`` the rows driving a primary output.  A
    flop op keeps each row's last input sample of the previous chunk in
    ``carry``.  The optional parts default to ``None`` on the class, so
    an op stores only the ones it has.
    """

    obs_idx: Optional[np.ndarray] = None
    obs_nets: Optional[np.ndarray] = None
    forces: Optional[List[Optional[_Forces]]] = None
    carry: Optional[np.ndarray] = None

    def __init__(self, group: FusedGroup, steps: Tuple, o0: int, o1: int,
                 flat_rows: np.ndarray):
        self.steps = steps
        self.n_ext = group.n_ext
        self.o0 = o0
        self.o1 = o1
        self.is_dff = group.is_dff
        self.flat_rows = flat_rows


class EventCone:
    """Cone-sweep evaluator for one multi-word fault batch.

    Driven by the grading loop (build, :meth:`bind_golden`,
    :meth:`evaluate_chunk` per time chunk, :meth:`compact` between
    chunks) over the batch's transitive fanout cone: every chunk
    evaluates every super-gate of the cone once.  ``rows_evaluated``
    accumulates those super-gate evaluations.

    The row space holds the cone's units, then seed rows (stuck nets no
    cone unit drives), then boundary rows (each distinct out-of-cone
    net an op reads).  Seed and boundary rows are filled from golden
    once per chunk; they are not evaluated super-gates.

    Construction is whole-cone array work: the cone's units are
    selected level by level, then renumbered, gathered and flagged in
    one pass and split into ops at group bounds; the fault forces are
    grouped per op member.  Only the op and force objects are made one
    by one.
    """

    def __init__(self, fused: FusedProgram, masks: LineMasks,
                 words: int = 1):
        self.words = words
        self.rows_evaluated = 0
        prog = fused.prog
        n_nets = fused.n_nets
        flat = _fused_flat(fused)

        # Net faults on fused-internal nets act as member-output forces
        # on their containing unit; every other masked net is marked
        # affected up front.
        int_unit = flat.internal_unit[masks.net]
        internal = int_unit >= 0
        ext_stuck = masks.net[~internal]
        pin_unit = flat.gate_unit[masks.pin_gate]

        affected = np.zeros(n_nets + 1, dtype=bool)
        affected[ext_stuck] = True
        forced_u = np.zeros(flat.n_units, dtype=bool)
        forced_u[pin_unit] = True
        forced_u[int_unit[internal]] = True

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

        # Rows: cone units in (level, group, position) order, then seed
        # rows; boundary rows follow once the ops' operands are known.
        units = np.flatnonzero(sel_all)
        out = flat.out[units]
        n_sel = units.size
        row_of = np.full(n_nets + 1, -1, dtype=np.int64)
        row_of[out] = np.arange(n_sel)
        driven = np.zeros(n_nets + 1, dtype=bool)
        driven[out] = True
        is_output = np.zeros(n_nets + 1, dtype=bool)
        is_output[prog.output_bits] = True
        is_stuck = np.zeros(n_nets + 1, dtype=bool)
        is_stuck[ext_stuck] = True

        is_seed = ~driven[ext_stuck]
        seed = ext_stuck[is_seed]
        self.seed_nets = seed
        self.srow0 = n_sel
        self.brow0 = n_sel + seed.size
        row_of[seed] = np.arange(n_sel, self.brow0)
        self.seed_set = masks.net_set[~internal][is_seed][:, :, None]
        self.seed_nclr = ~masks.net_clr[~internal][is_seed][:, :, None]
        self.seed_obs_idx = np.nonzero(is_output[seed])[0]

        # Ops: runs of one group among the cone units.
        group = flat.unit_group[units]
        o0 = np.flatnonzero(np.diff(group, prepend=-1))
        size = np.diff(o0, append=n_sel)
        op_of = np.repeat(np.arange(o0.size), size)
        rank = np.arange(n_sel) - o0[op_of]
        k_op = flat.group_n_ext[group[o0]]
        # Slot-major operand gather of every op, one after another:
        # op j's slot s of its unit at rank r lands at
        # start[j] + s * size[j] + r.
        start = np.concatenate(([0], np.cumsum(k_op * size)))
        ext = flat.ext[units]
        slot = np.arange(ext.shape[1])
        valid = slot < k_op[op_of][:, None]
        at = (start[op_of][:, None] + slot * size[op_of][:, None]
              + rank[:, None])[valid]
        nets = ext[valid]
        rows = row_of[nets]
        # Boundary rows: one per distinct out-of-cone operand net.
        outside = rows < 0
        boundary = np.unique(nets[outside])
        self.n_rows = self.brow0 + boundary.size
        row_of[boundary] = np.arange(self.brow0, self.n_rows)
        rows[outside] = row_of[nets[outside]]
        self.fill_nets = np.concatenate((seed, boundary))
        flat_rows = np.empty(start[-1], dtype=np.int64)
        flat_rows[at] = rows

        # Scratch sizes: the widest operand gather, and per recipe
        # member the widest op whose recipe runs past it.
        n_mem = flat.group_members[group[o0]]
        self.ext_rows = int((k_op * size).max(initial=0))
        self.member_rows = [
            int(size[n_mem > j + 1].max())
            for j in range(int(n_mem.max(initial=1)) - 1)]

        o1 = o0 + size
        obs = np.flatnonzero(is_output[out])
        obs_idx = rank[obs]
        obs_nets = out[obs]

        # Each op's bounds in every flat array, as one row of ints.
        bounds = np.stack([
            group[o0], o0, o1, start[:-1], start[1:],
            np.searchsorted(obs, o0), np.searchsorted(obs, o1),
        ], axis=1).tolist()
        self.ops: List[_EventOp] = []
        groups = flat.group_list
        for g, a, b, s0, s1, v0, v1 in bounds:
            op = _EventOp(groups[g], flat.group_steps[g], a, b,
                          flat_rows[s0:s1])
            if v1 > v0:
                op.obs_idx = obs_idx[v0:v1]
                op.obs_nets = obs_nets[v0:v1]
            if op.is_dff:
                # Flops reset to 0: the carry into the first chunk.
                op.carry = np.zeros((b - a, words), dtype=np.uint64)
            self.ops.append(op)

        # Every force of the batch, one entry per line: pin forces
        # (kind = the pin), forces on fused-internal nets and output-net
        # stucks, both on a member's output (kind 2; a stuck output net
        # forces its unit's last member).
        stuck = np.flatnonzero(is_stuck[out])
        mask_row = np.full(n_nets + 1, -1, dtype=np.int64)
        mask_row[masks.net] = np.arange(masks.net.size)
        stuck_line = mask_row[out[stuck]]
        f_unit = np.concatenate((
            np.searchsorted(units, pin_unit),
            np.searchsorted(units, int_unit[internal]), stuck))
        forced = _group_forces(
            op_of[f_unit],
            np.concatenate((flat.gate_member[masks.pin_gate],
                            flat.internal_member[masks.net[internal]],
                            n_mem[op_of[stuck]] - 1)),
            rank[f_unit],
            np.concatenate((masks.pin,
                            np.full(f_unit.size - masks.pin.size, 2))),
            np.concatenate((masks.pin_set, masks.net_set[internal],
                            masks.net_set[stuck_line])),
            np.concatenate((masks.pin_clr, masks.net_clr[internal],
                            masks.net_clr[stuck_line])))
        for j, mi, forces in forced:
            op = self.ops[j]
            if op.forces is None:
                op.forces = [None] * int(n_mem[j])
            op.forces[mi] = forces
        self.cone_nets = int(np.count_nonzero(affected[:n_nets]))

    # ------------------------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop word columns whose 64 lanes are all detected."""
        self.words = int(np.count_nonzero(keep))
        self.seed_set = self.seed_set[:, keep]
        self.seed_nclr = self.seed_nclr[:, keep]
        for op in self.ops:
            if op.carry is not None:
                op.carry = op.carry[:, keep]
            if op.forces is not None:
                for forces in op.forces:
                    if forces is not None:
                        forces.compact(keep)

    def bind_golden(self, golden: np.ndarray) -> None:
        """Bind the boolean ``(nets, T)`` golden matrix for this batch.

        Nothing is copied here: each chunk casts its seed and boundary
        rows' golden slice straight into the row space, and observed
        outputs widen their golden rows as they are compared.
        """
        self._golden = golden

    # ------------------------------------------------------------------
    def evaluate_chunk(self, ws: ConeWorkspace, t0: int,
                       t1: int) -> np.ndarray:
        """Evaluate the cone over ``[t0, t1)``; per-word detection bits.

        Bit ``j`` of returned word ``w`` is set when copy ``64 w + j``
        differs from golden at an observed output anywhere in the
        chunk.
        """
        wc = self.words
        span = t1 - t0
        det = np.zeros(wc, dtype=np.uint64)
        # One golden column-window view shared by every op this chunk.
        self._gsl = self._golden[:, t0:t1]
        w = ws.get("ev_nets", self.n_rows, wc, span)
        if self.fill_nets.size:
            # Seed and boundary rows: golden cast into the row space and
            # widened to lane words in place.
            fill = w[self.srow0:]
            np.copyto(fill, self._gsl[self.fill_nets][:, None, :])
            np.negative(fill, out=fill)
        if self.seed_nets.size:
            # Masked seed waveforms; an observed seed is compared
            # against golden here.
            sf = w[self.srow0:self.brow0]
            sf |= self.seed_set
            sf &= self.seed_nclr
            if self.seed_obs_idx.size:
                self._detect(ws, sf[self.seed_obs_idx],
                             self.seed_nets[self.seed_obs_idx], det)
        self.rows_evaluated += self.srow0
        # Operand and member scratch, carved once and sliced per op.
        ext = ws.get("ev_ext", self.ext_rows, wc, span)
        members = [ws.get(key, n, wc, span)
                   for key, n in zip(_MKEYS, self.member_rows)]
        for op in self.ops:
            if op.is_dff:
                self._eval_dff(op, ws, w, ext, det)
            else:
                self._eval_gate(op, ws, w, ext, members, det)
        return det

    # ------------------------------------------------------------------
    def _eval_gate(self, op: _EventOp, ws: ConeWorkspace, w: np.ndarray,
                   ext: np.ndarray, members: List[np.ndarray],
                   det: np.ndarray) -> None:
        n = op.o1 - op.o0
        # Slot-major operand gather: ext_view[j] is external slot j's
        # (n, words, span) block.
        ab = ext[:op.n_ext * n]
        w.take(op.flat_rows, 0, ab, "clip")
        ext_view = ab.reshape((op.n_ext, n) + ab.shape[1:])
        vout = w[op.o0:op.o1]
        forces = op.forces
        last = len(op.steps) - 1
        res: List[np.ndarray] = []
        for j, (fn, s0, s1) in enumerate(op.steps):
            a = ext_view[s0] if s0 >= 0 else res[-s0 - 1]
            out = vout if j == last else members[j][:n]
            if s1 is None:
                b = None
                fn(a, out=out)
            else:
                b = ext_view[s1] if s1 >= 0 else res[-s1 - 1]
                fn(a, b, out=out)
            if forces is not None and forces[j] is not None:
                forces[j].apply(fn, a, b, out)
            res.append(out)
        if op.obs_idx is not None:
            self._detect(ws, vout[op.obs_idx], op.obs_nets, det)

    def _eval_dff(self, op: _EventOp, ws: ConeWorkspace, w: np.ndarray,
                  ext: np.ndarray, det: np.ndarray) -> None:
        a = ext[:op.o1 - op.o0]
        w.take(op.flat_rows, 0, a, "clip")
        vout = w[op.o0:op.o1]
        vout[:, :, 1:] = a[:, :, :-1]
        vout[:, :, 0] = op.carry
        np.copyto(op.carry, a[:, :, -1])
        if op.forces is not None:
            op.forces[0].apply(None, None, None, vout)
        if op.obs_idx is not None:
            self._detect(ws, vout[op.obs_idx], op.obs_nets, det)

    def _detect(self, ws: ConeWorkspace, vals: np.ndarray,
                nets: np.ndarray, det: np.ndarray) -> None:
        """OR into ``det`` every lane where ``vals`` differ from golden."""
        dbuf = ws.get("ev_diff", *vals.shape)
        np.bitwise_xor(vals, _lanes(self._gsl[nets])[:, None, :], out=dbuf)
        det |= np.bitwise_or.reduce(
            np.bitwise_or.reduce(dbuf, axis=2), axis=0)
