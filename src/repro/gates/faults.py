"""Fault universe enumeration over elaborated netlists.

Bridges the unpruned cell-level fault table of
:mod:`repro.faultsim.dictionary` onto a flat
:class:`~repro.gates.netlist.GateNetlist`.  :func:`enumerate_cell_faults`
returns a :class:`GateFaultTable`: numpy columns naming each fault's
cell, class, stuck value and netlist line, where gate fault ``i`` is
the unpruned table's row ``i``.  The grader reads the columns; the
:class:`EnumeratedFault` / :class:`~repro.gates.gatesim.NetlistFault`
objects the simulators inject are built only on item access.
:func:`schedule_fault_batches` is the cone-aware batch schedule the
exact grader packs the rows in.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import lru_cache
from typing import (TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple,
                    Union)

import numpy as np

from ..errors import SimulationError
from ..telemetry import get_telemetry
from .cells import _NETLISTS, VARIANT_KINDS, CellFault
from .gatesim import NetlistFault
from .netlist import GateNetlist

if TYPE_CHECKING:
    from ..rtl.graph import Graph

__all__ = ["EnumeratedFault", "FaultLines", "GateFaultTable",
           "enumerate_cell_faults", "schedule_fault_batches"]


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


@dataclass(frozen=True, eq=False)
class FaultLines:
    """The netlist lines and stuck values of ``n`` faults, as columns.

    ``net[i]`` is a net fault's stuck net and ``-1`` for a pin fault.
    ``pin_gate[i]`` / ``pin[i]`` hold a pin fault's ``(gate, pin)``
    pairs, padded with ``-1``; ``value[i]`` is the stuck value.
    """

    net: np.ndarray
    pin_gate: np.ndarray
    pin: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.net)

    def take(self, index) -> "FaultLines":
        """The rows ``index`` selects (a slice, or integer positions)."""
        return FaultLines(self.net[index], self.pin_gate[index],
                          self.pin[index], self.value[index])

    @classmethod
    def of(cls, faults: Union["FaultLines", Sequence[NetlistFault]]
           ) -> "FaultLines":
        """``faults`` as columns; a :class:`NetlistFault` sequence is
        converted, columns pass through."""
        if isinstance(faults, FaultLines):
            return faults
        width = max([2] + [len(f.lines[1]) for f in faults
                           if f.lines[0] == "pins"])
        n = len(faults)
        net = np.full(n, -1, dtype=np.int64)
        pin_gate = np.full((n, width), -1, dtype=np.int64)
        pin = np.full((n, width), -1, dtype=np.int64)
        value = np.zeros(n, dtype=np.uint8)
        for i, fault in enumerate(faults):
            kind, payload = fault.lines
            value[i] = fault.value
            if kind == "net":
                net[i] = int(payload)  # type: ignore[call-overload]
            elif kind == "pins":
                for q, (gate, p) in enumerate(payload):  # type: ignore
                    pin_gate[i, q] = gate
                    pin[i, q] = p
            else:
                raise SimulationError(f"unknown fault line kind {kind!r}")
        return cls(net, pin_gate, pin, value)


@dataclass(frozen=True, eq=False)
class GateFaultTable(SequenceABC):
    """A gate fault universe as columns; row ``i`` is fault ``i``.

    ``node`` and ``bit`` name each fault's cell, ``fault_class`` its
    class id in :func:`~repro.faultsim.dictionary.fault_class_table`,
    and ``lines`` its netlist lines and stuck value.  An integer index
    builds that row's :class:`EnumeratedFault`; a slice or an integer
    array selects rows and returns a table.
    """

    node: np.ndarray
    bit: np.ndarray
    fault_class: np.ndarray
    lines: FaultLines

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = int(index)
            n = len(self)
            if not -n <= i < n:
                raise IndexError(f"fault {i} out of range for {n} faults")
            return next(self._objects(slice(i % n, i % n + 1)))
        return self.take(index)

    def __iter__(self) -> Iterator[EnumeratedFault]:
        return self._objects(slice(None))

    def take(self, index) -> "GateFaultTable":
        """The rows ``index`` selects (a slice, or integer positions)."""
        return GateFaultTable(self.node[index], self.bit[index],
                              self.fault_class[index],
                              self.lines.take(index))

    def _objects(self, rows: slice) -> Iterator[EnumeratedFault]:
        from ..faultsim.dictionary import fault_class_table

        classes = fault_class_table().faults
        lines = self.lines
        for node, bit, k, net, gates, pins, value in zip(
                self.node[rows].tolist(), self.bit[rows].tolist(),
                self.fault_class[rows].tolist(), lines.net[rows].tolist(),
                lines.pin_gate[rows].tolist(), lines.pin[rows].tolist(),
                lines.value[rows].tolist()):
            cf = classes[k]
            line: Tuple[str, object] = (
                ("net", net) if net >= 0 else
                ("pins", tuple((g, p) for g, p in zip(gates, pins)
                               if g >= 0)))
            yield EnumeratedFault(
                node_id=node, bit=bit, cell_fault=cf,
                netlist_fault=NetlistFault(
                    lines=line, value=value,
                    label=f"node{node}.bit{bit}.{cf.name}"))

    @classmethod
    def of(cls, faults: Union["GateFaultTable", Sequence[EnumeratedFault]]
           ) -> "GateFaultTable":
        """``faults`` as a table; an :class:`EnumeratedFault` sequence
        is converted, a table passes through."""
        if isinstance(faults, GateFaultTable):
            return faults
        from ..faultsim.dictionary import fault_class_table

        class_id = {cf: k for k, cf in
                    enumerate(fault_class_table().faults)}
        return cls(
            node=np.array([f.node_id for f in faults], dtype=np.int64),
            bit=np.array([f.bit for f in faults], dtype=np.int64),
            fault_class=np.array([class_id[f.cell_fault] for f in faults],
                                 dtype=np.int64),
            lines=FaultLines.of([f.netlist_fault for f in faults]))


@dataclass(frozen=True)
class _SiteTemplate:
    """Each class's netlist line relative to its cell's first gate:
    ``net_gate`` is the gate whose output net a net fault sticks (``-1``
    for pin faults), ``pin_gate`` / ``pin`` a pin fault's pairs."""

    net_gate: np.ndarray
    pin_gate: np.ndarray
    pin: np.ndarray
    value: np.ndarray


def _template_lines(kind: str) -> Dict[str, Tuple[str, object]]:
    """Each site of a ``kind`` cell and its line, by template gate:
    ``("net", k)`` is template gate ``k``'s output, ``("pins", ((k,
    pin), ...))`` the pins a branch (one) or an input stem (all of the
    cell's pins that read it) sticks."""
    gates = _NETLISTS[kind][0]
    driver = {out: k for k, (_kind, out, _ins) in enumerate(gates)}
    pins: Dict[str, List[Tuple[int, int]]] = {}
    for k, (_kind, _out, ins) in enumerate(gates):
        for pin, branch in enumerate(ins):
            pins.setdefault(branch, []).append((k, pin))
            if "." in branch:  # a branch is also one of its stem's pins
                pins.setdefault(branch.split(".")[0], []).append((k, pin))
    lines: Dict[str, Tuple[str, object]] = {
        site: ("pins", tuple(p)) for site, p in pins.items()}
    lines.update((out, ("net", k)) for out, k in driver.items())
    return lines


@lru_cache(maxsize=None)
def _site_template() -> _SiteTemplate:
    """The line template of every class in the shared class table.

    Read from the cell templates of :mod:`repro.gates.cells`, the same
    tables elaboration tiles: a stem fault's pins all lie in its own
    cell, so every line is a fixed offset from the cell's first gate.
    """
    from ..faultsim.dictionary import fault_class_table

    table = fault_class_table()
    sites = [cf.name.rsplit("/", 1) for cf in table.faults]
    lines: List[Tuple[str, object]] = []
    for kind_id, kind in enumerate(VARIANT_KINDS):
        site_lines = _template_lines(kind)
        start = int(table.start[kind_id])
        for site, _value in sites[start:start + int(table.count[kind_id])]:
            lines.append(site_lines[site])
    width = max([2] + [len(p) for k, p in lines if k == "pins"])
    net_gate = np.full(len(lines), -1, dtype=np.int64)
    pin_gate = np.full((len(lines), width), -1, dtype=np.int64)
    pin = np.full((len(lines), width), -1, dtype=np.int64)
    for k, (line_kind, payload) in enumerate(lines):
        if line_kind == "net":
            net_gate[k] = payload
        else:
            for q, (gate, p) in enumerate(payload):
                pin_gate[k, q] = gate
                pin[k, q] = p
    value = np.array([int(v) for _site, v in sites], dtype=np.uint8)
    for column in (net_gate, pin_gate, pin, value):
        column.flags.writeable = False  # shared by every enumeration
    return _SiteTemplate(net_gate, pin_gate, pin, value)


def enumerate_cell_faults(graph: Graph, nl: GateNetlist) -> GateFaultTable:
    """Every collapsed adder/subtractor fault, mapped onto netlist lines.

    Row ``i`` is row ``i`` of the graph's unpruned fault universe
    (:func:`repro.faultsim.dictionary.build_fault_universe` with
    ``prune_untestable=False``), so the two index spaces coincide.  The
    representative site of each collapsed class is injected; all class
    members behave identically at the cell boundary, and cell outputs
    reconverge only at the next cell, so the representative's detection
    behaviour stands for the whole class.  Each line is the class's
    site template offset by its cell's first gate: no per-fault Python.
    """
    from ..faultsim.dictionary import build_fault_universe

    with get_telemetry().span("gates.enumerate") as span:
        universe = build_fault_universe(graph, prune_untestable=False)
        cells = np.array(universe.cells, dtype=np.int64).reshape(-1, 2)
        first = nl.cell_gates[nl.cell_rows(cells[:, 0], cells[:, 1])]
        gate_out = nl.out
        tmpl = _site_template()
        k = universe.fault_class
        g0 = first[universe.fault_cell]
        net_gate = tmpl.net_gate[k]
        pin_gate = tmpl.pin_gate[k]
        table = GateFaultTable(
            node=cells[universe.fault_cell, 0],
            bit=cells[universe.fault_cell, 1],
            fault_class=k,
            lines=FaultLines(
                net=np.where(net_gate >= 0,
                             gate_out[g0 + np.maximum(net_gate, 0)], -1),
                pin_gate=np.where(pin_gate >= 0, g0[:, None] + pin_gate, -1),
                pin=tmpl.pin[k],
                value=tmpl.value[k]))
        span.set(faults=len(table))
    return table


def schedule_fault_batches(
        faults: Union[GateFaultTable, Sequence[EnumeratedFault]],
        batch_size: int = 64) -> List[np.ndarray]:
    """Cone-aware batch schedule: arrays of row indices into ``faults``.

    Faults in the same elaborated cell share (almost) the same
    transitive fanout cone, and neighbouring bits of the same operator
    overlap heavily, so one stable lexsort of the rows by (node, bit,
    anchor line, stuck value) keeps overlapping cones in one batch.
    The anchor is the stuck net, or the first stuck ``(gate, pin)``;
    net anchors sort before pin anchors.  On LP this localizes little:
    a single fault's cone already spans 778-1,866 of the fused
    program's 1,873 groups, and a 2,048-fault batch's *union* cone has
    about 1.3x the groups and 1.3-1.8x the rows of a median single
    fault's (docs/performance.md, "How local a cone batch is").
    The sorted order is sliced into ``batch_size`` groups.  Every index
    appears exactly once; callers scatter per-batch verdicts back
    through the indices, keeping results independent of the schedule.
    """
    table = GateFaultTable.of(faults)
    lines = table.lines
    is_pin = lines.net < 0
    anchor = np.where(is_pin, lines.pin_gate[:, 0], lines.net)
    pin = np.where(is_pin, lines.pin[:, 0], 0)
    order = np.lexsort((lines.value, pin, anchor, is_pin, table.bit,
                        table.node))
    return [order[start:start + batch_size]
            for start in range(0, len(order), batch_size)]
