"""Compiled, levelized gate-netlist evaluation.

Elaborated netlists are feed-forward, so every net can be evaluated over
the whole time axis at once.  The interpreters in :mod:`repro.gates.gatesim`
historically walked the netlist's elements gate by gate in Python; this module
lowers a :class:`~repro.gates.netlist.GateNetlist` once into a **levelized
op table**: nets are assigned topological levels, the elements of each
level are grouped by gate kind, and evaluation becomes, per (level, kind)
group, one fancy-indexed gather of the input waveforms out of a nets x
time matrix and one vectorized numpy op — hundreds of gates per Python
bytecode step instead of one.  The table is plain arrays in CSR form
(:class:`CompiledNetlist`): the ``gateprog`` cache entry stores them and
a grading pool pickles them as they are.

The same program drives three consumers:

* :func:`simulate_waves` — fault-free (or single-fault) boolean
  simulation of every net, used by
  :func:`repro.gates.gatesim.simulate_netlist`;
* :func:`golden_net_waves` — the per-net golden waveform matrix the
  cone engine reads at cone boundaries;
* :func:`repro.gates.eventsim.fuse_program` — the fused super-gate
  table behind the fault-parallel (64 copies per ``uint64`` lane
  word, several words side by side) cone sweep of
  :func:`repro.gates.fault_parallel.gate_level_missed`.

The ripple-carry adders of Table 1 designs levelize into hundreds of
tiny levels, so per-group numpy dispatch overhead — not arithmetic — is
the cost that matters.  Super-gate fusion, which reads the flat op
arrays, folds gates into fewer, wider groups, and chunk evaluation
carves every temporary out of a persistent :class:`ConeWorkspace`.

A program is memoized on the netlist object by
:func:`compiled_program`; the artifact cache can additionally persist
programs across processes
(:func:`repro.cache.pipeline.cached_gate_program`).  On LP, on a
2-CPU host, elaborating takes about 3 ms, compiling about 4 ms (one
pass over the netlist's columns) and fusing
(:func:`repro.gates.eventsim.fuse_program`) about 0.08 s; the cache
persists the compiled program only, so a hit skips the second and not
the third.  Golden waveforms are
re-simulated instead: that is cheaper than storing or loading them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .netlist import GATE_KINDS, GateNetlist

__all__ = [
    "OP_KINDS",
    "CompiledNetlist",
    "compile_netlist",
    "compiled_program",
    "simulate_waves",
    "golden_net_waves",
    "ConeWorkspace",
]

#: Evaluation-order-stable op kinds: the netlist's gate kinds, same
#: codes, plus ``dff``, the one-sample time shift.
OP_KINDS = GATE_KINDS + ("dff",)

_KIND_CODE = {kind: code for code, kind in enumerate(OP_KINDS)}
_DFF = _KIND_CODE["dff"]
_TWO_INPUT = frozenset(("xor", "and", "or"))


@dataclass
class CompiledNetlist:
    """A levelized program for one netlist, as one CSR op table.

    Op group ``g`` has kind ``OP_KINDS[grp_kind[g]]``, outputs at level
    ``grp_level[g] + 1`` and ops ``[grp_off[g], grp_off[g + 1])`` of the
    flat per-op arrays: ``elem`` is a gate index of the netlist (a flop
    index for kind ``"dff"``), ``out`` / ``in0`` / ``in1`` are net ids, and ``in1``
    is -1 for one-input kinds.  ``net_level`` is every net's topological
    level (0 for constants and inputs).  The ``gateprog`` cache entry
    stores these arrays as they are.
    """

    n_nets: int
    input_bits: np.ndarray
    output_bits: np.ndarray
    net_level: np.ndarray
    grp_kind: np.ndarray
    grp_level: np.ndarray
    grp_off: np.ndarray
    elem: np.ndarray
    out: np.ndarray
    in0: np.ndarray
    in1: np.ndarray

    @property
    def n_levels(self) -> int:
        return int(self.grp_level[-1]) + 1 if self.grp_level.size else 0

    def op_count(self) -> int:
        return len(self.out)

    def op_kinds(self) -> np.ndarray:
        """Every op's kind code."""
        return np.repeat(self.grp_kind, np.diff(self.grp_off))


def compile_netlist(nl: GateNetlist) -> CompiledNetlist:
    """Lower a netlist to its levelized CSR program.

    Deterministic: groups follow ascending level, :data:`OP_KINDS` order
    within a level, and element creation order within a group.
    """
    # Every element as one op row, in creation order.
    idx = nl.elem_index
    is_dff = nl.elem_kind.astype(bool)
    gate, dff = idx[~is_dff], idx[is_dff]
    code = np.full(len(idx), _DFF, dtype=np.int64)
    out = np.empty(len(idx), dtype=np.int64)
    in0 = np.empty(len(idx), dtype=np.int64)
    in1 = np.full(len(idx), -1, dtype=np.int64)
    code[~is_dff] = nl.kind[gate]
    out[~is_dff] = nl.out[gate]
    in0[~is_dff] = nl.in0[gate]
    in1[~is_dff] = nl.in1[gate]
    out[is_dff] = nl.dff_q[dff]
    in0[is_dff] = nl.dff_d[dff]
    # One pass in creation order levelizes every net; the extra last
    # slot is level 0 for the ``in1 == -1`` of one-input ops.
    level = [0] * (nl.net_count + 1)
    levels = []
    for o, a, b in zip(out.tolist(), in0.tolist(), in1.tolist()):
        la, lb = level[a], level[b]
        lvl = 1 + (la if la > lb else lb)
        level[o] = lvl
        levels.append(lvl)
    table = np.stack([np.array(levels, dtype=np.int64).reshape(-1), code,
                      idx, out, in0, in1], axis=1)
    # lexsort is stable: creation order within each (level, kind) group.
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    lvl, code = table[:, 0], table[:, 1]
    starts = np.flatnonzero(np.diff(lvl * len(OP_KINDS) + code, prepend=-1))
    return CompiledNetlist(
        n_nets=nl.net_count,
        input_bits=np.asarray(nl.input_bits, dtype=np.int64),
        output_bits=np.asarray(nl.output_bits, dtype=np.int64),
        net_level=np.array(level[:-1], dtype=np.int64),
        grp_kind=code[starts].astype(np.int8),
        grp_level=lvl[starts] - 1,
        grp_off=np.append(starts, len(table)),
        elem=table[:, 2].copy(),
        out=table[:, 3].copy(),
        in0=table[:, 4].copy(),
        in1=table[:, 5].copy(),
    )


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
    off = prog.grp_off.tolist()
    # A stuck net is forced once its driving group has written it.
    forced_group = -1
    if stuck_net is not None:
        if prog.net_level[stuck_net] == 0:
            values[stuck_net] = stuck_value
        else:
            at = np.flatnonzero(prog.out == stuck_net)[0]
            forced_group = int(np.searchsorted(off, at, "right")) - 1
    overrides: Dict[int, List[Tuple[int, int]]] = {}
    if stuck_pins:
        is_gate = prog.op_kinds() != _DFF
        for gidx, pins in stuck_pins.items():
            at = int(np.flatnonzero(is_gate & (prog.elem == gidx))[0])
            g = int(np.searchsorted(off, at, "right")) - 1
            for pin in pins:
                overrides.setdefault(g, []).append((at - off[g], int(pin)))

    for g, code in enumerate(prog.grp_kind.tolist()):
        lo, hi = off[g], off[g + 1]
        kind = OP_KINDS[code]
        a = values[prog.in0[lo:hi]]
        b = values[prog.in1[lo:hi]] if kind in _TWO_INPUT else None
        for pos, pin in overrides.get(g, ()):
            (a if pin == 0 else b)[pos] = stuck_value
        if kind == "xor":
            out = a ^ b
        elif kind == "and":
            out = a & b
        elif kind == "or":
            out = a | b
        elif kind == "not":
            out = ~a
        elif kind == "buf":
            out = a
        else:  # dff: one-sample shift, reset value 0
            out = np.zeros_like(a)
            out[:, 1:] = a[:, :-1]
        values[prog.out[lo:hi]] = out
        if g == forced_group:
            values[stuck_net] = stuck_value
    return values


def golden_net_waves(prog: CompiledNetlist, in_bits: np.ndarray) -> np.ndarray:
    """Fault-free per-net waveforms; the cone engine's boundary oracle."""
    return simulate_waves(prog, in_bits)


# ----------------------------------------------------------------------
# Fault-parallel cone-restricted evaluation
# ----------------------------------------------------------------------
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
