"""Fault universe enumeration over elaborated netlists.

Bridges the unpruned cell-level fault table of
:mod:`repro.faultsim.dictionary` onto a flat
:class:`~repro.gates.netlist.GateNetlist`, producing concrete
:class:`~repro.gates.gatesim.NetlistFault` objects that the gate-level
simulator can inject (gate fault ``i`` is the table's row ``i``), and
the cone-aware batch schedule the exact grader packs them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..rtl.graph import Graph
from .cells import CellFault
from .gatesim import NetlistFault
from .netlist import GateNetlist

__all__ = ["EnumeratedFault", "enumerate_cell_faults",
           "schedule_fault_batches"]


@dataclass(frozen=True)
class EnumeratedFault:
    """One collapsed cell fault placed at a concrete design location."""

    node_id: int
    bit: int
    cell_fault: CellFault
    netlist_fault: NetlistFault

    @property
    def label(self) -> str:
        return f"node{self.node_id}.bit{self.bit}.{self.cell_fault.name}"


def enumerate_cell_faults(graph: Graph, nl: GateNetlist) -> List[EnumeratedFault]:
    """Every collapsed adder/subtractor fault, mapped onto netlist lines.

    Fault ``i`` is row ``i`` of the graph's unpruned fault universe
    (:func:`repro.faultsim.dictionary.build_fault_universe` with
    ``prune_untestable=False``), so the two index spaces coincide.  The
    representative site of each collapsed class is injected; all class
    members behave identically at the cell boundary, and cell outputs
    reconverge only at the next cell, so the representative's detection
    behaviour stands for the whole class.
    """
    from ..faultsim.dictionary import build_fault_universe, fault_class_table

    universe = build_fault_universe(graph, prune_untestable=False)
    classes = fault_class_table().faults
    sites = [cf.name.rsplit("/", 1) for cf in classes]
    out: List[EnumeratedFault] = []
    for row, k in zip(universe.fault_cell.tolist(),
                      universe.fault_class.tolist()):
        node_id, bit = universe.cells[row]
        cf = classes[k]
        site, value = sites[k]
        nf = NetlistFault(lines=nl.cell_fault_line(node_id, bit, site),
                          value=int(value),
                          label=f"node{node_id}.bit{bit}.{cf.name}")
        out.append(EnumeratedFault(node_id=node_id, bit=bit, cell_fault=cf,
                                   netlist_fault=nf))
    return out


def _locality_key(fault: EnumeratedFault) -> Tuple:
    """Sort key placing faults with overlapping fanout cones together.

    Faults in the same elaborated cell share (almost) the same transitive
    fanout cone, and neighbouring bits of the same operator overlap
    heavily, so ordering by (node, bit, concrete line) makes each
    64-fault batch's *union* cone barely larger than a single fault's.
    The anchor line id breaks ties deterministically.
    """
    nf = fault.netlist_fault
    kind, payload = nf.lines
    if kind == "net":
        anchor = (0, int(payload), 0)  # type: ignore[arg-type]
    else:
        gate, pin = payload[0]  # type: ignore[index]
        anchor = (1, int(gate), int(pin))
    return (fault.node_id, fault.bit, anchor, nf.value)


def schedule_fault_batches(faults: Sequence[EnumeratedFault],
                           batch_size: int = 64) -> List[List[int]]:
    """Cone-aware batch schedule: lists of indices into ``faults``.

    Stable-sorts the fault indices by :func:`_locality_key` and slices
    the sorted order into ``batch_size`` groups, so each batch's fault
    sites are localized and the union fanout cone the batch engine must
    evaluate stays small.  Every index appears exactly once; callers
    scatter per-batch verdicts back through the indices, keeping results
    independent of the schedule.
    """
    order = sorted(range(len(faults)), key=lambda i: _locality_key(faults[i]))
    return [order[start:start + batch_size]
            for start in range(0, len(order), batch_size)]
