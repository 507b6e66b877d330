"""Flat gate-level netlists elaborated from RTL graphs.

Every RTL node becomes a bundle of single-bit nets; adders and
subtractors expand into the same cell netlists the fault dictionary is
built from (:mod:`repro.gates.cells`), registers become D flip-flops, and
shift/sign-extension operators become pure wiring.  The result is a
self-contained structural netlist that the parallel-pattern simulator in
:mod:`repro.gates.gatesim` can evaluate with or without an injected
stuck-at fault — the ground truth the fast cell-level fault engine is
validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DesignError, FaultModelError
from ..rtl.graph import Graph
from ..rtl.nodes import OpKind
from ..telemetry import get_telemetry
from .cells import _NETLISTS  # shared single-source cell topology

__all__ = ["GateRef", "Gate", "Dff", "GateNetlist", "elaborate"]


@dataclass(frozen=True)
class GateRef:
    """Location of one elaborated cell: RTL node id and bit position."""

    node_id: int
    bit: int


@dataclass
class Gate:
    """One logic gate: ``kind`` in {xor, and, or, not, buf}."""

    kind: str
    out: int
    ins: Tuple[int, ...]
    cell: Optional[GateRef] = None


@dataclass
class Dff:
    """A D flip-flop with reset value 0."""

    d: int
    q: int


@dataclass
class GateNetlist:
    """A flat structural netlist.

    Net 0 is constant 0 and net 1 is constant 1.  ``input_bits[j]`` is the
    net carrying bit ``j`` of the RTL input; ``node_bits[nid][j]`` maps
    every RTL node's output bits to nets (sign-extension duplicates the
    MSB net rather than adding hardware, exactly like wiring).
    """

    names: List[str] = field(default_factory=lambda: ["const0", "const1"])
    gates: List[Gate] = field(default_factory=list)
    dffs: List[Dff] = field(default_factory=list)
    #: Creation sequence of ("gate", i) / ("dff", i); elaboration appends in
    #: topological order, so simulators can evaluate in one pass.
    elements: List[Tuple[str, int]] = field(default_factory=list)
    input_bits: List[int] = field(default_factory=list)
    output_bits: List[int] = field(default_factory=list)
    node_bits: Dict[int, List[int]] = field(default_factory=dict)
    cell_sites: Dict[Tuple[int, int], Dict[str, object]] = field(default_factory=dict)
    #: First gate of every elaborated cell; a cell's gates follow it
    #: contiguously, in its variant's gate order.
    cell_gates: Dict[Tuple[int, int], int] = field(default_factory=dict)

    CONST0 = 0
    CONST1 = 1

    def new_net(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def add_gate(self, kind: str, ins: Sequence[int], name: str,
                 cell: Optional[GateRef] = None) -> int:
        out = self.new_net(name)
        self.gates.append(Gate(kind=kind, out=out, ins=tuple(ins), cell=cell))
        self.elements.append(("gate", len(self.gates) - 1))
        return out

    def add_dff(self, d: int, name: str) -> int:
        q = self.new_net(name)
        self.dffs.append(Dff(d=d, q=q))
        self.elements.append(("dff", len(self.dffs) - 1))
        return q

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def net_count(self) -> int:
        return len(self.names)

    def fault_site_count(self) -> int:
        """Stuck-at sites: every gate output and every gate input pin."""
        return sum(1 + len(g.ins) for g in self.gates)

    def cell_fault_line(self, node_id: int, bit: int, site: str) -> Tuple[str, object]:
        """Resolve a cell-level fault site name to a netlist line.

        Returns ``("net", net_id)`` for a gate-output stem, or
        ``("pins", ((gate_index, pin_index), ...))`` for a fanout branch
        (one pair) or a cell-input stem (every pin of this cell that
        reads it).
        """
        key = (node_id, bit)
        if key not in self.cell_sites:
            raise FaultModelError(f"no elaborated cell at node {node_id} bit {bit}")
        sites = self.cell_sites[key]
        if site not in sites:
            raise FaultModelError(
                f"unknown site {site!r} in cell {key}; known: {sorted(sites)}"
            )
        return sites[site]  # type: ignore[return-value]


def _sign_extend_bits(bits: List[int], width: int) -> List[int]:
    if len(bits) >= width:
        return bits[:width]
    return bits + [bits[-1]] * (width - len(bits))


def _elaborate_cell(
    nl: GateNetlist,
    kind: str,
    node_id: int,
    bit: int,
    a: int,
    b: int,
    c: int,
) -> Tuple[int, int]:
    """Instantiate one cell variant; returns (sum_net, cout_net).

    Also records the mapping from the dictionary's fault-site names
    (``a``, ``a.x``, ``s1`` ...) to concrete netlist lines so cell-level
    faults can be injected into the flat netlist.
    """
    gates, _obs, const_net, const_val = _NETLISTS[kind]
    prefix = f"n{node_id}.b{bit}"
    nets: Dict[str, int] = {"a": a, "b": b, "c": c}
    if const_net is not None:
        nets[const_net] = nl.CONST1 if const_val else nl.CONST0
    ref = GateRef(node_id=node_id, bit=bit)
    # A stem fault sticks every pin of *this cell* that reads the stem
    # (the wire segment into the cell), never the shared driving net.
    stem_pins: Dict[str, List[Tuple[int, int]]] = {}
    sites: Dict[str, object] = {}
    nl.cell_gates[(node_id, bit)] = len(nl.gates)
    for gkind, out, ins in gates:
        in_nets = [nets[i.split(".")[0]] for i in ins]
        gate_index = len(nl.gates)
        out_net = nl.add_gate(gkind, in_nets, f"{prefix}.{out}", cell=ref)
        nets[out] = out_net
        # Internal stems (s1, g1, g2, sum, cout) are gate outputs: a stem
        # fault is the driver stuck, which reaches all readers via the net.
        sites[out] = ("net", out_net)
        for pin, branch in enumerate(ins):
            stem = branch.split(".")[0]
            stem_pins.setdefault(stem, []).append((gate_index, pin))
            if "." in branch:
                sites[branch] = ("pins", ((gate_index, pin),))
    for stem, pins in stem_pins.items():
        if stem not in sites:  # primary input stems a / b / c
            sites[stem] = ("pins", tuple(pins))
    cout = nets.get("cout", nl.CONST0)
    nl.cell_sites[(node_id, bit)] = sites
    return nets["sum"], cout


def elaborate(graph: Graph) -> GateNetlist:
    """Expand an RTL graph into a flat gate netlist."""
    with get_telemetry().span("gates.elaborate", design=graph.name) as span:
        nl = _elaborate(graph)
        span.set(gates=nl.gate_count)
    return nl


def _elaborate(graph: Graph) -> GateNetlist:
    graph.validate()
    nl = GateNetlist()
    for nid in graph.topological_order():
        node = graph.node(nid)
        width = node.fmt.width
        if node.kind is OpKind.INPUT:
            bits = [nl.new_net(f"x.{j}") for j in range(width)]
            nl.input_bits = bits
        elif node.kind is OpKind.CONST:
            bits = [nl.CONST0] * width
        elif node.kind is OpKind.DELAY:
            src_bits = nl.node_bits[node.srcs[0]]
            bits = [
                nl.add_dff(src_bits[j], f"n{nid}.q{j}") for j in range(width)
            ]
        elif node.kind is OpKind.SHIFT:
            src = graph.node(node.srcs[0])
            src_bits = nl.node_bits[node.srcs[0]]
            e = node.fmt.frac - src.fmt.frac - node.shift
            bits = []
            for j in range(width):
                k = j - e
                if k < 0:
                    bits.append(nl.CONST0)
                elif k >= src.fmt.width:
                    bits.append(src_bits[-1])  # sign extension
                else:
                    bits.append(src_bits[k])
        elif node.kind in (OpKind.ADD, OpKind.SUB):
            a_node, b_node = (graph.node(s) for s in node.srcs)
            a_bits = _sign_extend_bits(nl.node_bits[node.srcs[0]], width)
            b_bits = _sign_extend_bits(nl.node_bits[node.srcs[1]], width)
            if node.kind is OpKind.SUB:
                b_bits = [
                    nl.add_gate("not", [b], f"n{nid}.binv{j}")
                    for j, b in enumerate(b_bits)
                ]
            carry = nl.CONST1 if node.kind is OpKind.SUB else nl.CONST0
            bits = []
            for j in range(width):
                if j == 0:
                    kind = "lsb1" if node.kind is OpKind.SUB else "lsb0"
                elif j == width - 1:
                    kind = "msb"
                else:
                    kind = "full"
                s, carry = _elaborate_cell(nl, kind, nid, j, a_bits[j], b_bits[j], carry)
                bits.append(s)
        elif node.kind is OpKind.OUTPUT:
            bits = list(nl.node_bits[node.srcs[0]])
            nl.output_bits = bits
        else:  # pragma: no cover - exhaustive over OpKind
            raise DesignError(f"unhandled node kind {node.kind}")
        nl.node_bits[nid] = bits
    return nl
