"""Design-wide fault universe assembly.

Places the collapsed cell fault classes of :mod:`repro.gates.cells` at
every bit of every adder/subtractor in a datapath.  A universe is a
table of numpy columns: one row per *cell* (an operator bit position)
and one row per *fault* (a collapsed class at a cell), the fault rows
naming their cell, their effective detecting-pattern mask and their
class in :func:`fault_class_table`.

Both builders feed one array routine with each cell's variant kind and
feasible-pattern mask; the routine expands the cells into their classes
without a per-fault Python loop.  :class:`DesignFault` objects are built
only when a caller reads :attr:`FaultUniverse.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..errors import FaultModelError
from ..gates.cells import VARIANT_KINDS, CellFault, cell_variant, variant_for_bit
from ..rtl.graph import Graph
from ..rtl.nodes import OpKind
from ..telemetry import get_telemetry

__all__ = ["DesignFault", "FaultClassTable", "FaultUniverse",
           "build_fault_universe", "build_universe_from_cells",
           "fault_class_table"]

#: Kind id of each cell variant: its position in ``VARIANT_KINDS``.
_KIND = {kind: i for i, kind in enumerate(VARIANT_KINDS)}


@dataclass(frozen=True)
class DesignFault:
    """One collapsed fault class at a concrete (operator, bit) location.

    ``effective_mask`` is the detecting-pattern mask restricted to codes
    that are structurally feasible at this cell (see
    :mod:`repro.faultsim.feasibility`); it equals ``detect_mask`` when no
    pruning information was supplied.
    """

    index: int
    node_id: int
    bit: int
    cell_fault: CellFault
    effective_mask: int = 0

    @property
    def label(self) -> str:
        return f"node{self.node_id}.bit{self.bit}.{self.cell_fault.name}"


@dataclass(frozen=True)
class FaultClassTable:
    """The collapsed classes of the four cell variants, in
    ``VARIANT_KINDS`` order; a class id indexes :attr:`faults`.

    ``start``, ``count`` and ``uncollapsed`` are per kind id: the id of
    the kind's first class, its class count and its uncollapsed fault
    count.  ``detect_mask`` is each class's detecting-pattern mask.
    """

    faults: Tuple[CellFault, ...]
    start: np.ndarray
    count: np.ndarray
    uncollapsed: np.ndarray
    detect_mask: np.ndarray


@lru_cache(maxsize=None)
def fault_class_table() -> FaultClassTable:
    """The class table (built on first use; its arrays are read-only,
    since every universe shares them)."""
    variants = [cell_variant(kind) for kind in VARIANT_KINDS]
    faults = tuple(cf for v in variants for cf in v.faults)
    count = np.array([v.fault_count for v in variants], dtype=np.int64)
    table = FaultClassTable(
        faults=faults,
        start=np.cumsum(count) - count,
        count=count,
        uncollapsed=np.array([v.uncollapsed_count for v in variants],
                             dtype=np.int64),
        detect_mask=np.array([cf.detect_mask for cf in faults],
                             dtype=np.uint8),
    )
    for column in (table.start, table.count, table.uncollapsed,
                   table.detect_mask):
        column.flags.writeable = False
    return table


@dataclass
class FaultUniverse:
    """The complete single-stuck-at universe of a datapath's operators.

    Attributes
    ----------
    cells:
        ``(node_id, bit)`` per cell row, in a fixed order shared with the
        pattern tracker.
    fault_cell:
        For each fault, the row index of its cell.
    fault_mask:
        For each fault, the 8-bit effective detecting-pattern mask.
    fault_class:
        For each fault, its class id in :func:`fault_class_table`.
    """

    design_name: str
    cells: List[Tuple[int, int]]
    cell_index: Dict[Tuple[int, int], int]
    fault_cell: np.ndarray
    fault_mask: np.ndarray
    fault_class: np.ndarray
    uncollapsed_count: int
    #: Fault classes removed as structurally untestable (pruning on).
    untestable_count: int = 0

    @property
    def fault_count(self) -> int:
        """Number of collapsed fault classes (the headline fault count)."""
        return len(self.fault_cell)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @cached_property
    def faults(self) -> List[DesignFault]:
        """One :class:`DesignFault` per row (built on first read)."""
        classes = fault_class_table().faults
        cells = self.cells
        return [DesignFault(index=i, node_id=cells[row][0], bit=cells[row][1],
                            cell_fault=classes[k], effective_mask=mask)
                for i, (row, k, mask) in enumerate(zip(
                    self.fault_cell.tolist(), self.fault_class.tolist(),
                    self.fault_mask.tolist()))]

    def faults_at(self, node_id: int, bit: int) -> List[DesignFault]:
        """All fault classes of one cell."""
        row = self.cell_index.get((node_id, bit))
        if row is None:
            raise FaultModelError(f"no cell at node {node_id} bit {bit}")
        return [self.faults[i] for i in np.flatnonzero(self.fault_cell == row)]


def _universe_from_columns(name: str, cells: List[Tuple[int, int]],
                           kind: np.ndarray,
                           feasible: np.ndarray) -> FaultUniverse:
    """The universe of ``cells``, given each cell's kind id and feasible
    pattern mask.

    Each cell is repeated once per class of its kind, each class's detect
    mask is ANDed with the cell's feasible mask, and the rows left with a
    zero mask are the untestable faults.  Rows come out cell-major, then
    in class order within a cell.
    """
    table = fault_class_table()
    per_cell = table.count[kind]
    total = int(per_cell.sum())
    fault_cell = np.repeat(np.arange(len(cells), dtype=np.int64), per_cell)
    # A row's class is its kind's first class plus its rank in the cell.
    first_row = np.cumsum(per_cell) - per_cell
    fault_class = (np.arange(total, dtype=np.int64)
                   + np.repeat(table.start[kind] - first_row, per_cell))
    fault_mask = table.detect_mask[fault_class] & np.repeat(feasible, per_cell)
    keep = fault_mask != 0
    return FaultUniverse(
        design_name=name,
        cells=cells,
        cell_index={cell: row for row, cell in enumerate(cells)},
        fault_cell=fault_cell[keep],
        fault_mask=fault_mask[keep],
        fault_class=fault_class[keep],
        uncollapsed_count=int(table.uncollapsed[kind].sum()),
        untestable_count=total - int(np.count_nonzero(keep)),
    )


def build_universe_from_cells(cell_specs, name: str) -> FaultUniverse:
    """Assemble a universe from explicit cell descriptions.

    ``cell_specs`` is an iterable of ``(node_id, bit, variant,
    feasible_mask)`` where ``variant`` is a
    :class:`~repro.gates.cells.CellVariant`.  Cells of one ``node_id``
    must be supplied contiguously starting at bit 0 (the pattern tracker
    relies on that layout).  Used by non-graph operator styles such as
    the carry-save accumulation chain.  Every universe build, through
    either builder, is one ``faultsim.build_universe`` span.
    """
    with get_telemetry().span("faultsim.build_universe",
                              design=name) as span:
        cells: List[Tuple[int, int]] = []
        kind: List[int] = []
        feasible: List[int] = []
        for node_id, bit, variant, mask in cell_specs:
            cells.append((node_id, bit))
            kind.append(_KIND[variant.kind])
            feasible.append(mask)
        universe = _universe_from_columns(
            name, cells, np.array(kind, dtype=np.intp),
            np.array(feasible, dtype=np.uint8))
        span.set(faults=universe.fault_count)
    return universe


def build_fault_universe(
    graph: Graph, name: str = "", prune_untestable: bool = True
) -> FaultUniverse:
    """Enumerate the collapsed adder/subtractor fault universe of a graph.

    With ``prune_untestable`` (default), fault classes whose detecting
    patterns are structurally infeasible at their cell are excluded —
    matching the paper's flow, where scaling and redundant-operator
    elimination (refs [2, 3]) remove such redundancy before fault counts
    are reported.  Pass ``False`` for the raw structural universe.
    """
    return build_universe_from_cells(_graph_cell_specs(graph, prune_untestable),
                                     name or graph.name)


def _graph_cell_specs(graph: Graph, prune_untestable: bool):
    """Cell specs of a graph's operators.  A generator, so the
    feasibility analysis runs inside the universe span."""
    masks = None
    if prune_untestable:
        from .feasibility import design_feasible_masks
        masks = design_feasible_masks(graph)
    for node in graph.arithmetic_nodes:
        for bit in range(node.fmt.width):
            yield (node.nid, bit,
                   variant_for_bit(bit, node.fmt.width,
                                   node.kind is OpKind.SUB),
                   0xFF if masks is None else masks[(node.nid, bit)])
