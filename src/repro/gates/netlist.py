"""Flat gate-level netlists elaborated from RTL graphs, as columns.

Every RTL node becomes a bundle of single-bit nets; adders and
subtractors expand into the same cell netlists the fault dictionary is
built from (:mod:`repro.gates.cells`), registers become D flip-flops, and
shift/sign-extension operators become pure wiring.  The result is a
self-contained structural netlist that the parallel-pattern simulator in
:mod:`repro.gates.gatesim` can evaluate with or without an injected
stuck-at fault — the ground truth the fast cell-level fault engine is
validated against.

A :class:`GateNetlist` is a table of numpy columns, not a graph of
objects: :func:`elaborate` walks the RTL nodes once to number their
nets, then tiles each operator's cell templates with index arithmetic
over all cells at once.  Net names and each cell's fault-site map are
derived from the templates when asked for.  On LP (14,039 gates, 823
flops) elaborating takes about 3 ms on a 2-CPU host; the per-gate
elaborator it replaced took about 0.1 s and left some 20,000 objects
for the garbage collector to traverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..errors import DesignError, FaultModelError
from ..telemetry import get_telemetry
from .cells import _NETLISTS, VARIANT_KINDS  # shared single-source cell topology

if TYPE_CHECKING:
    from ..rtl.graph import Graph

__all__ = ["GATE_KINDS", "GateNetlist", "elaborate"]

#: Gate kinds; a netlist's ``kind`` column holds indices into this tuple.
GATE_KINDS = ("xor", "and", "or", "not", "buf")

_NOT = GATE_KINDS.index("not")
_FULL, _MSB, _LSB0, _LSB1 = (VARIANT_KINDS.index(k)
                             for k in ("full", "msb", "lsb0", "lsb1"))


def _column(dtype=np.int64) -> np.ndarray:
    return np.zeros(0, dtype=dtype)


@dataclass(eq=False)
class GateNetlist:
    """A flat structural netlist, as columns.

    Net 0 is constant 0 and net 1 is constant 1; nets are numbered in
    creation order up to ``n_nets``.  Gate ``g`` has kind
    ``GATE_KINDS[kind[g]]``, drives net ``out[g]`` and reads nets
    ``in0[g]`` and ``in1[g]`` (``in1`` is -1 for one-input kinds).
    Flop ``f`` is a D flip-flop with reset value 0 from net ``dff_d[f]``
    to net ``dff_q[f]``.  Element ``e`` is gate (``elem_kind[e] == 0``)
    or flop (``1``) number ``elem_index[e]``, in creation order;
    elaboration creates them in topological order, so simulators can
    evaluate in one pass.

    ``input_bits[j]`` is the net carrying bit ``j`` of the RTL input;
    ``node_bits[nid][j]`` maps every RTL node's output bits to nets
    (sign-extension duplicates the MSB net rather than adding hardware,
    exactly like wiring), with nodes in elaboration order.  Cell ``i``
    is bit ``cell_bit[i]`` of node ``cell_node[i]``: its variant's
    template gates (``VARIANT_KINDS[cell_variant[i]]``), contiguous from
    gate ``cell_gates[i]`` in template order.
    """

    n_nets: int = 2
    kind: np.ndarray = field(default_factory=lambda: _column(np.int8))
    out: np.ndarray = field(default_factory=_column)
    in0: np.ndarray = field(default_factory=_column)
    in1: np.ndarray = field(default_factory=_column)
    dff_d: np.ndarray = field(default_factory=_column)
    dff_q: np.ndarray = field(default_factory=_column)
    elem_kind: np.ndarray = field(default_factory=lambda: _column(np.int8))
    elem_index: np.ndarray = field(default_factory=_column)
    input_bits: np.ndarray = field(default_factory=_column)
    output_bits: np.ndarray = field(default_factory=_column)
    node_bits: Dict[int, np.ndarray] = field(default_factory=dict)
    cell_node: np.ndarray = field(default_factory=_column)
    cell_bit: np.ndarray = field(default_factory=_column)
    cell_variant: np.ndarray = field(default_factory=lambda: _column(np.int8))
    cell_gates: np.ndarray = field(default_factory=_column)

    CONST0 = 0
    CONST1 = 1

    @property
    def gate_count(self) -> int:
        return len(self.kind)

    @property
    def dff_count(self) -> int:
        return len(self.dff_q)

    @property
    def net_count(self) -> int:
        return self.n_nets

    def cell_rows(self, node: np.ndarray, bit: np.ndarray) -> np.ndarray:
        """The cell row of each ``(node[i], bit[i])``.

        Raises :class:`FaultModelError` naming the first cell that was
        not elaborated.
        """
        node = np.asarray(node, dtype=np.int64).reshape(-1)
        bit = np.asarray(bit, dtype=np.int64).reshape(-1)
        span = 1 + int(max(self.cell_bit.max(initial=0), bit.max(initial=0)))
        have = self.cell_node * span + self.cell_bit
        want = node * span + bit
        if len(have):
            order = np.argsort(have, kind="stable")
            at = np.searchsorted(have[order], want)
            rows = order[np.minimum(at, len(order) - 1)]
            found = have[rows] == want
        else:
            rows = np.zeros(len(want), dtype=np.int64)
            found = np.zeros(len(want), dtype=bool)
        if not found.all():
            i = int(np.argmin(found))
            raise FaultModelError(
                f"no elaborated cell at node {int(node[i])} bit {int(bit[i])}")
        return rows

    def cell_sites(self, node_id: int, bit: int
                   ) -> Dict[str, Tuple[str, object]]:
        """One cell's fault-site map, from its variant's template.

        Maps each of the dictionary's site names (``a``, ``a.x``, ``s1``
        ...) to its netlist line: ``("net", net_id)`` for a gate-output
        stem, ``("pins", ((gate_index, pin_index), ...))`` for a fanout
        branch (one pair) or a cell-input stem (every pin of this cell
        that reads it).  The map is walked by name from the template
        and the gate columns, one cell at a time.
        """
        row = int(self.cell_rows([node_id], [bit])[0])
        gates = _NETLISTS[VARIANT_KINDS[int(self.cell_variant[row])]][0]
        first = int(self.cell_gates[row])
        # A stem fault sticks every pin of *this cell* that reads the
        # stem (the wire segment into the cell), never the shared
        # driving net.
        stem_pins: Dict[str, List[Tuple[int, int]]] = {}
        sites: Dict[str, Tuple[str, object]] = {}
        for k, (_kind, out, ins) in enumerate(gates):
            gate = first + k
            # Internal stems (s1, g1, g2, sum, cout) are gate outputs: a
            # stem fault is the driver stuck, which reaches all readers
            # via the net.
            sites[out] = ("net", int(self.out[gate]))
            for pin, branch in enumerate(ins):
                stem = branch.split(".")[0]
                stem_pins.setdefault(stem, []).append((gate, pin))
                if "." in branch:
                    sites[branch] = ("pins", ((gate, pin),))
        for stem, pins in stem_pins.items():
            if stem not in sites:  # primary input stems a / b / c
                sites[stem] = ("pins", tuple(pins))
        return sites

    def cell_fault_line(self, node_id: int, bit: int, site: str
                        ) -> Tuple[str, object]:
        """Resolve a cell-level fault site name to a netlist line (see
        :meth:`cell_sites`)."""
        sites = self.cell_sites(node_id, bit)
        if site not in sites:
            raise FaultModelError(
                f"unknown site {site!r} in cell {(node_id, bit)}; "
                f"known: {sorted(sites)}")
        return sites[site]

    def net_names(self) -> List[str]:
        """Every net's name: ``const0``/``const1``, ``x.<j>`` input bits,
        ``n<node>.q<j>`` flop outputs, ``n<node>.binv<j>`` subtractor
        inverters and ``n<node>.b<bit>.<net>`` cell nets, named after
        the cell template's nets."""
        names = [""] * self.n_nets
        names[self.CONST0], names[self.CONST1] = "const0", "const1"
        for j, net in enumerate(self.input_bits.tolist()):
            names[net] = f"x.{j}"
        # A flop's output first appears in its own register's bits:
        # nodes that share it (shifts, the output port) come later.
        is_q = np.zeros(self.n_nets, dtype=bool)
        is_q[self.dff_q] = True
        for nid, bits in self.node_bits.items():
            for j, net in enumerate(bits.tolist()):
                if is_q[net] and not names[net]:
                    names[net] = f"n{nid}.q{j}"
        out = self.out.tolist()
        for node, bit, variant, first in zip(
                self.cell_node.tolist(), self.cell_bit.tolist(),
                self.cell_variant.tolist(), self.cell_gates.tolist()):
            if bit == 0 and variant == _LSB1:
                # A subtractor's inverters come just before its cells.
                width = len(self.node_bits[node])
                for j in range(width):
                    names[out[first - width + j]] = f"n{node}.binv{j}"
            for k, (_kind, net, _ins) in enumerate(
                    _NETLISTS[VARIANT_KINDS[variant]][0]):
                names[out[first + k]] = f"n{node}.b{bit}.{net}"
        return names


@dataclass(frozen=True)
class _Template:
    """The cell templates as arrays, indexed by variant code.

    ``src[v, k, p]`` names pin ``p`` of template gate ``k``'s operand:
    0, 1 and 2 are the cell inputs ``a``, ``b`` and ``c``, ``3 + m`` is
    template gate ``m``'s output, -1 an absent second pin.  ``carry[v]``
    is the constant net a constant-carry variant ties ``c`` to (-1 when
    ``c`` is the previous cell's carry-out).
    """

    size: np.ndarray
    kind: np.ndarray
    src: np.ndarray
    sum_at: np.ndarray
    cout_at: np.ndarray
    carry: np.ndarray


@lru_cache(maxsize=None)
def _template() -> _Template:
    depth = max(len(_NETLISTS[v][0]) for v in VARIANT_KINDS)
    n = len(VARIANT_KINDS)
    size = np.zeros(n, dtype=np.int64)
    kind = np.zeros((n, depth), dtype=np.int8)
    src = np.full((n, depth, 2), -1, dtype=np.int64)
    sum_at = np.full(n, -1, dtype=np.int64)
    cout_at = np.full(n, -1, dtype=np.int64)
    carry = np.full(n, -1, dtype=np.int64)
    for v, variant in enumerate(VARIANT_KINDS):
        gates, _obs, const_net, const_val = _NETLISTS[variant]
        operand = {"a": 0, "b": 1, "c": 2}
        for k, (gkind, out, ins) in enumerate(gates):
            kind[v, k] = GATE_KINDS.index(gkind)
            for pin, branch in enumerate(ins):
                src[v, k, pin] = operand[branch.split(".")[0]]
            operand[out] = 3 + k
        size[v] = len(gates)
        sum_at[v] = operand["sum"] - 3
        cout_at[v] = operand["cout"] - 3 if "cout" in operand else -1
        if const_net == "c":
            carry[v] = GateNetlist.CONST1 if const_val else GateNetlist.CONST0
    return _Template(size, kind, src, sum_at, cout_at, carry)


@dataclass(frozen=True)
class _Layout:
    """One operator's cells, relative to its first gate: each bit's
    variant, first gate and ``sum`` gate, and the operator's gate count
    (subtractor inverters, one per bit, come first)."""

    variant: np.ndarray
    first: np.ndarray
    sum_gate: np.ndarray
    gates: int


@lru_cache(maxsize=None)
def _layout(width: int, is_sub: bool) -> _Layout:
    tmpl = _template()
    variant = np.full(width, _FULL, dtype=np.int8)
    variant[-1] = _MSB
    variant[0] = _LSB1 if is_sub else _LSB0
    size = tmpl.size[variant]
    first = (width if is_sub else 0) + np.cumsum(size) - size
    layout = _Layout(variant, first, first + tmpl.sum_at[variant],
                     int(first[-1] + size[-1]))
    for column in (layout.variant, layout.first, layout.sum_gate):
        column.flags.writeable = False  # shared by every operator
    return layout


def _sign_extend(bits: np.ndarray, width: int) -> np.ndarray:
    if len(bits) >= width:
        return bits[:width]
    return np.concatenate([bits, np.repeat(bits[-1:], width - len(bits))])


def elaborate(graph: Graph) -> GateNetlist:
    """Expand an RTL graph into a flat gate netlist."""
    with get_telemetry().span("gates.elaborate", design=graph.name) as span:
        nl = _elaborate(graph)
        span.set(gates=nl.gate_count)
    return nl


def _elaborate(graph: Graph) -> GateNetlist:
    from ..rtl.nodes import OpKind

    graph.validate()
    nl = GateNetlist()
    node_bits = nl.node_bits
    # Elements are created node by node: one run of flops per register,
    # one run of gates per adder or subtractor.  Every gate and flop
    # drives a fresh net, so within a run nets and elements advance in
    # step, and an operator's gate g drives net g + (its net offset).
    runs: List[Tuple[int, int, int]] = []  # (is_flop, first, count)
    ops: List[Tuple[int, int, bool, np.ndarray, np.ndarray, int, int]] = []
    dff_d: List[np.ndarray] = []
    dff_q: List[np.ndarray] = []
    nets, gates, flops = 2, 0, 0
    for nid in graph.topological_order():
        node = graph.node(nid)
        width = node.fmt.width
        kind = node.kind
        if kind is OpKind.INPUT:
            bits = np.arange(nets, nets + width)
            nets += width
            nl.input_bits = bits
        elif kind is OpKind.CONST:
            bits = np.full(width, nl.CONST0, dtype=np.int64)
        elif kind is OpKind.DELAY:
            bits = np.arange(nets, nets + width)
            dff_d.append(node_bits[node.srcs[0]][:width])
            dff_q.append(bits)
            runs.append((1, flops, width))
            nets += width
            flops += width
        elif kind is OpKind.SHIFT:
            src = graph.node(node.srcs[0])
            k = np.arange(width) - (node.fmt.frac - src.fmt.frac - node.shift)
            # Below the source's LSB is constant 0; above its MSB is
            # sign extension.
            bits = np.where(k < 0, nl.CONST0, node_bits[node.srcs[0]][
                np.clip(k, 0, src.fmt.width - 1)])
        elif kind is OpKind.ADD or kind is OpKind.SUB:
            is_sub = kind is OpKind.SUB
            layout = _layout(width, is_sub)
            ops.append((nid, width, is_sub,
                        _sign_extend(node_bits[node.srcs[0]], width),
                        _sign_extend(node_bits[node.srcs[1]], width),
                        gates, nets - gates))
            bits = nets + layout.sum_gate
            runs.append((0, gates, layout.gates))
            nets += layout.gates
            gates += layout.gates
        elif kind is OpKind.OUTPUT:
            bits = node_bits[node.srcs[0]]
            nl.output_bits = bits
        else:  # pragma: no cover - exhaustive over OpKind
            raise DesignError(f"unhandled node kind {kind}")
        node_bits[nid] = bits
    nl.n_nets = nets
    _tile_cells(nl, ops, gates)
    if dff_q:
        nl.dff_d = np.concatenate(dff_d)
        nl.dff_q = np.concatenate(dff_q)
    if runs:
        is_flop, first, count = np.array(runs, dtype=np.int64).T
        start = np.cumsum(count) - count
        nl.elem_kind = np.repeat(is_flop, count).astype(np.int8)
        nl.elem_index = (np.arange(int(count.sum()))
                         - np.repeat(start - first, count))
    return nl


def _tile_cells(nl: GateNetlist, ops, n_gates: int) -> None:
    """Fill the gate and cell columns of every operator at once."""
    nl.kind = np.zeros(n_gates, dtype=np.int8)
    nl.out = np.zeros(n_gates, dtype=np.int64)
    nl.in0 = np.zeros(n_gates, dtype=np.int64)
    nl.in1 = np.full(n_gates, -1, dtype=np.int64)
    if not ops:
        return
    tmpl = _template()
    nids, widths, subs, a_bits, b_bits, op_gate, op_shift = zip(*ops)
    widths = np.array(widths, dtype=np.int64)
    node = np.repeat(np.array(nids, dtype=np.int64), widths)
    op_gate = np.repeat(np.array(op_gate, dtype=np.int64), widths)
    shift = np.repeat(np.array(op_shift, dtype=np.int64), widths)
    is_sub = np.repeat(np.array(subs, dtype=bool), widths)
    layouts = [_layout(int(w), s) for w, s in zip(widths.tolist(), subs)]
    variant = np.concatenate([lay.variant for lay in layouts])
    first = op_gate + np.concatenate([lay.first for lay in layouts])
    bit = np.arange(len(node)) - np.repeat(np.cumsum(widths) - widths, widths)
    a = np.concatenate(a_bits)
    b = np.concatenate(b_bits)
    # A subtractor inverts its secondary operand, one NOT per bit, ahead
    # of its cells; the cells read the inverters.
    inv = op_gate[is_sub] + bit[is_sub]
    nl.kind[inv] = _NOT
    nl.out[inv] = inv + shift[is_sub]
    nl.in0[inv] = b[is_sub]
    b[is_sub] = nl.out[inv]
    # The carry ripples from each cell's ``cout`` into the next bit's
    # ``c``; a bit-0 cell's ``c`` is its variant's constant.
    cout = first + tmpl.cout_at[variant] + shift
    c = np.where(tmpl.carry[variant] >= 0, tmpl.carry[variant],
                 np.roll(cout, 1))
    # Tile every cell's template gates.
    size = tmpl.size[variant]
    cell = np.repeat(np.arange(len(variant)), size)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(size) - size, size)
    vk = variant[cell]
    gate = first[cell] + k
    nl.kind[gate] = tmpl.kind[vk, k]
    nl.out[gate] = gate + shift[cell]
    operands = np.stack([a, b, c], axis=1)[cell]
    for pin, column in ((0, nl.in0), (1, nl.in1)):
        src = tmpl.src[vk, k, pin]
        internal = first[cell] + (src - 3) + shift[cell]
        external = np.take_along_axis(
            operands, np.clip(src, 0, 2)[:, None], axis=1)[:, 0]
        column[gate] = np.where(src >= 3, internal,
                                np.where(src >= 0, external, -1))
    nl.cell_node = node
    nl.cell_bit = bit
    nl.cell_variant = variant
    nl.cell_gates = first
