"""Compiled, levelized gate-netlist evaluation.

Elaborated netlists are feed-forward, so every net can be evaluated over
the whole time axis at once.  The interpreters in :mod:`repro.gates.gatesim`
historically walked ``nl.elements`` gate by gate in Python; this module
lowers a :class:`~repro.gates.netlist.GateNetlist` once into a **levelized
structure-of-arrays program**: nets are assigned topological levels, the
elements of each level are grouped by gate kind, and evaluation becomes,
per (level, kind) group, one fancy-indexed gather of the input waveforms
out of a nets x time matrix and one vectorized numpy op — hundreds of
gates per Python bytecode step instead of one.

The same program drives three consumers:

* :func:`simulate_waves` — fault-free (or single-fault) boolean
  simulation of every net, used by
  :func:`repro.gates.gatesim.simulate_netlist`;
* :func:`golden_net_waves` — the per-net golden waveform matrix the
  cone engine reads at cone boundaries;
* :func:`repro.gates.eventsim.fuse_program` — the fused super-gate
  program behind the fault-parallel (64 copies per ``uint64`` lane
  word, several words side by side) cone sweep of
  :func:`repro.gates.fault_parallel.gate_level_missed`.

The ripple-carry adders of Table 1 designs levelize into hundreds of
tiny levels, so per-group numpy dispatch overhead — not arithmetic — is
the cost that matters.  Super-gate fusion, which reads the flattened
op view :class:`_FlatProgram`, folds gates into fewer, wider groups,
and chunk evaluation carves every temporary out of a persistent
:class:`ConeWorkspace`.

A program is memoized on the netlist object by
:func:`compiled_program`; the artifact cache can additionally persist
programs across processes
(:func:`repro.cache.pipeline.cached_gate_program`).  On LP, compiling
takes about 0.07 s and fusing (:func:`repro.gates.eventsim.fuse_program`)
about 0.29 s; the cache persists the compiled program only, so a hit
skips the first and not the second.  Golden waveforms are
re-simulated instead: that is cheaper than storing or loading them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .netlist import GateNetlist

__all__ = [
    "OP_KINDS",
    "LevelOp",
    "CompiledNetlist",
    "compile_netlist",
    "compiled_program",
    "simulate_waves",
    "golden_net_waves",
    "ConeWorkspace",
]

#: Evaluation-order-stable op kinds; ``dff`` is the one-sample time shift.
OP_KINDS = ("xor", "and", "or", "not", "buf", "dff")

_TWO_INPUT = frozenset(("xor", "and", "or"))


@dataclass
class LevelOp:
    """One (level, kind) group of the compiled program.

    ``elem`` indexes into ``nl.gates`` (or ``nl.dffs`` for kind
    ``"dff"``); the parallel ``out`` / ``in0`` / ``in1`` arrays carry the
    group's net ids.  ``in1`` is ``None`` for one-input kinds.
    """

    kind: str
    elem: np.ndarray
    out: np.ndarray
    in0: np.ndarray
    in1: Optional[np.ndarray] = None


@dataclass
class CompiledNetlist:
    """A levelized structure-of-arrays program for one netlist."""

    n_nets: int
    input_bits: np.ndarray
    output_bits: np.ndarray
    #: ``levels[k]`` holds the LevelOps whose outputs are level ``k+1``.
    levels: List[List[LevelOp]] = field(default_factory=list)
    #: Topological level of every net (0 for constants and inputs).
    net_level: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: ``gate_loc[g]`` -> (level_index, op_index, position) of gate ``g``.
    gate_loc: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def op_count(self) -> int:
        return sum(len(op.out) for ops in self.levels for op in ops)


def compile_netlist(nl: GateNetlist) -> CompiledNetlist:
    """Lower a netlist to its levelized structure-of-arrays program.

    Deterministic: groups follow ascending level, :data:`OP_KINDS` order
    within a level, and element creation order within a group.
    """
    n_nets = nl.net_count
    level = np.zeros(n_nets, dtype=np.int64)
    buckets: Dict[Tuple[int, str], List[Tuple[int, int, int, int]]] = {}
    max_level = 0
    for elem_kind, idx in nl.elements:
        if elem_kind == "gate":
            gate = nl.gates[idx]
            kind = gate.kind
            if kind not in OP_KINDS:  # pragma: no cover - elaboration only
                raise SimulationError(f"unknown gate kind {kind!r}")
            out = gate.out
            in0 = gate.ins[0]
            in1 = gate.ins[1] if len(gate.ins) > 1 else -1
            lvl = 1 + int(max(level[n] for n in gate.ins))
        else:
            dff = nl.dffs[idx]
            kind, out, in0, in1 = "dff", dff.q, dff.d, -1
            lvl = 1 + int(level[in0])
        level[out] = lvl
        max_level = max(max_level, lvl)
        buckets.setdefault((lvl, kind), []).append((idx, out, in0, in1))

    prog = CompiledNetlist(
        n_nets=n_nets,
        input_bits=np.asarray(nl.input_bits, dtype=np.int64),
        output_bits=np.asarray(nl.output_bits, dtype=np.int64),
        net_level=level,
    )
    for lvl in range(1, max_level + 1):
        ops: List[LevelOp] = []
        for kind in OP_KINDS:
            rows = buckets.get((lvl, kind))
            if not rows:
                continue
            arr = np.array(rows, dtype=np.int64)
            op = LevelOp(
                kind=kind,
                elem=arr[:, 0].copy(),
                out=arr[:, 1].copy(),
                in0=arr[:, 2].copy(),
                in1=arr[:, 3].copy() if kind in _TWO_INPUT else None,
            )
            if kind != "dff":
                li, oi = len(prog.levels), len(ops)
                for pos, gidx in enumerate(op.elem):
                    prog.gate_loc[int(gidx)] = (li, oi, pos)
            ops.append(op)
        prog.levels.append(ops)
    return prog


def compiled_program(nl: GateNetlist) -> CompiledNetlist:
    """The netlist's compiled program, memoized on the netlist object."""
    prog = getattr(nl, "_compiled_program", None)
    if prog is None or prog.n_nets != nl.net_count:
        prog = compile_netlist(nl)
        nl._compiled_program = prog  # type: ignore[attr-defined]
    return prog


# ----------------------------------------------------------------------
# Boolean whole-axis evaluation (golden machine / single fault)
# ----------------------------------------------------------------------
def simulate_waves(
    prog: CompiledNetlist,
    in_bits: np.ndarray,
    stuck_net: Optional[int] = None,
    stuck_pins: Optional[Dict[int, Sequence[int]]] = None,
    stuck_value: bool = False,
) -> np.ndarray:
    """Every net's boolean waveform, as a ``(n_nets, T)`` matrix.

    ``in_bits`` is the ``(n_inputs, T)`` boolean input-bit matrix.  A
    single stuck-at fault can be injected either as a whole-net force
    (``stuck_net``) or as per-gate-pin forces (``stuck_pins`` maps gate
    index to the faulted pin numbers) — the same fault model as
    :class:`repro.gates.gatesim.NetlistFault`.
    """
    length = in_bits.shape[1]
    values = np.zeros((prog.n_nets, length), dtype=bool)
    values[GateNetlist.CONST1] = True
    if len(prog.input_bits):
        values[prog.input_bits] = in_bits
    if stuck_net is not None and prog.net_level[stuck_net] == 0:
        values[stuck_net] = stuck_value

    overrides: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for gidx, pins in (stuck_pins or {}).items():
        li, oi, pos = prog.gate_loc[int(gidx)]
        for pin in pins:
            overrides.setdefault((li, oi), []).append((pos, int(pin)))

    for li, ops in enumerate(prog.levels):
        for oi, op in enumerate(ops):
            a = values[op.in0]
            b = values[op.in1] if op.in1 is not None else None
            for pos, pin in overrides.get((li, oi), ()):
                (a if pin == 0 else b)[pos] = stuck_value
            if op.kind == "xor":
                out = a ^ b
            elif op.kind == "and":
                out = a & b
            elif op.kind == "or":
                out = a | b
            elif op.kind == "not":
                out = ~a
            elif op.kind == "buf":
                out = a
            else:  # dff: one-sample shift, reset value 0
                out = np.zeros_like(a)
                out[:, 1:] = a[:, :-1]
            values[op.out] = out
        if stuck_net is not None and prog.net_level[stuck_net] == li + 1:
            values[stuck_net] = stuck_value
    return values


def golden_net_waves(prog: CompiledNetlist, in_bits: np.ndarray) -> np.ndarray:
    """Fault-free per-net waveforms; the cone engine's boundary oracle."""
    return simulate_waves(prog, in_bits)


# ----------------------------------------------------------------------
# Fault-parallel cone-restricted evaluation
# ----------------------------------------------------------------------
@dataclass
class _FlatProgram:
    """Level-ordered flat view of a program, read by super-gate fusion.

    All per-op arrays are concatenated in (level, kind-group, position)
    order; ``in1x`` duplicates ``in0`` for one-input kinds so readers
    need no arity branches.
    """

    out: np.ndarray
    in0: np.ndarray
    in1x: np.ndarray
    elem: np.ndarray
    #: per level: (kind, flat_start, flat_end) of each kind group
    group_slices: List[List[Tuple[str, int, int]]]


def _flat_program(prog: CompiledNetlist) -> _FlatProgram:
    flat = getattr(prog, "_flat", None)
    if flat is not None:
        return flat
    outs: List[np.ndarray] = []
    in0s: List[np.ndarray] = []
    in1s: List[np.ndarray] = []
    elems: List[np.ndarray] = []
    group_slices: List[List[Tuple[str, int, int]]] = []
    pos = 0
    for ops in prog.levels:
        groups: List[Tuple[str, int, int]] = []
        for op in ops:
            outs.append(op.out)
            in0s.append(op.in0)
            in1s.append(op.in1 if op.in1 is not None else op.in0)
            elems.append(op.elem)
            groups.append((op.kind, pos, pos + len(op.out)))
            pos += len(op.out)
        group_slices.append(groups)
    empty = np.zeros(0, dtype=np.int64)
    flat = _FlatProgram(
        out=np.concatenate(outs) if outs else empty,
        in0=np.concatenate(in0s) if in0s else empty,
        in1x=np.concatenate(in1s) if in1s else empty,
        elem=np.concatenate(elems) if elems else empty,
        group_slices=group_slices,
    )
    prog._flat = flat  # type: ignore[attr-defined]
    return flat


class ConeWorkspace:
    """Reusable flat uint64 buffers for the chunk evaluator.

    numpy temporaries above the allocator's mmap threshold are returned
    to the OS on free, so a fresh gather/op/scatter per group would
    page-fault its buffers back in on every single call — an order of
    magnitude slower than the arithmetic itself.  All chunk-evaluation
    arrays are therefore carved out of named flat buffers that persist
    across groups, chunks and batches, growing monotonically.
    """

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, name: str, *shape: int) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= dim
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(n, 1), dtype=np.uint64)
            self._bufs[name] = buf
        return buf[:n].reshape(shape)
