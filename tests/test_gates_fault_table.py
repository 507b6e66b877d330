"""The columnar gate fault table against the netlist it indexes.

``enumerate_cell_faults`` builds every line from one site template per
cell variant plus each cell's first gate; these tests hold each row of
the three reference designs to the elaborator's own site map, to the
unpruned cell-level universe it mirrors, and the lexsort batch schedule
to a stable sort on the per-object locality key it replaced.
"""

import numpy as np
import pytest

from repro.faultsim import build_fault_universe
from repro.faultsim.dictionary import fault_class_table
from repro.gates.cells import _NETLISTS
from repro.gates import (
    GATE_KINDS,
    VARIANT_KINDS,
    GateFaultTable,
    elaborate,
    enumerate_cell_faults,
    schedule_fault_batches,
)


def _locality_key(fault):
    """The per-object schedule key: (node, bit, anchor line, value)."""
    nf = fault.netlist_fault
    kind, payload = nf.lines
    if kind == "net":
        anchor = (0, int(payload), 0)
    else:
        gate, pin = payload[0]
        anchor = (1, int(gate), int(pin))
    return (fault.node_id, fault.bit, anchor, nf.value)


def _row_lines(table):
    """Each row's line in ``cell_fault_line``'s form, from the columns."""
    lines = table.lines
    out = []
    for net, gates, pins in zip(lines.net.tolist(), lines.pin_gate.tolist(),
                                lines.pin.tolist()):
        if net >= 0:
            out.append(("net", net))
        else:
            out.append(("pins", tuple((g, p) for g, p in zip(gates, pins)
                                      if g >= 0)))
    return out


@pytest.fixture(scope="module", params=["LP", "BP", "HP"])
def design_table(request, ctx):
    design = ctx.designs[request.param]
    nl = elaborate(design.graph)
    return design, nl, enumerate_cell_faults(design.graph, nl)


class TestReferenceDesigns:
    def test_rows_are_the_unpruned_universe(self, design_table):
        design, _nl, table = design_table
        universe = build_fault_universe(design.graph, prune_untestable=False)
        cells = np.array(universe.cells).reshape(-1, 2)
        assert len(table) == universe.fault_count
        assert np.array_equal(table.fault_class, universe.fault_class)
        assert np.array_equal(table.node, cells[universe.fault_cell, 0])
        assert np.array_equal(table.bit, cells[universe.fault_cell, 1])

    def test_every_line_matches_the_netlist(self, design_table):
        """Each row against ``cell_sites``, which walks the cell's
        template by name over the gate columns (one site map per cell)."""
        _design, nl, table = design_table
        classes = fault_class_table().faults
        got = _row_lines(table)
        sites = {}
        for i, (node, bit, k, value) in enumerate(zip(
                table.node.tolist(), table.bit.tolist(),
                table.fault_class.tolist(), table.lines.value.tolist())):
            site, stuck = classes[k].name.rsplit("/", 1)
            if (node, bit) not in sites:
                sites[node, bit] = nl.cell_sites(node, bit)
            assert got[i] == sites[node, bit][site], i
            assert value == int(stuck), i
        node, bit = next(iter(sites))
        site = classes[int(table.fault_class[0])].name.rsplit("/", 1)[0]
        assert nl.cell_fault_line(node, bit, site) == sites[node, bit][site]

    def test_pins_lie_in_the_faults_own_cell(self, design_table):
        """Every pin fault has a pin, and each of its pins (both of a
        cell-input stem's) belongs to a gate of the fault's own cell."""
        _design, nl, table = design_table
        # Each cell's gates: its variant's template length from its
        # first gate; the gates outside every cell are inverters.
        cell_of = np.full((nl.gate_count, 2), -1)
        for node, bit, variant, first in zip(
                nl.cell_node.tolist(), nl.cell_bit.tolist(),
                nl.cell_variant.tolist(), nl.cell_gates.tolist()):
            size = len(_NETLISTS[VARIANT_KINDS[variant]][0])
            assert (cell_of[first:first + size] == -1).all()
            cell_of[first:first + size] = (node, bit)
        assert (nl.kind[cell_of[:, 0] < 0] == GATE_KINDS.index("not")).all()
        pins = table.lines.pin_gate
        has = pins >= 0
        assert np.array_equal(has.any(axis=1), table.lines.net < 0)
        rows = np.nonzero(has)[0]
        assert np.array_equal(cell_of[pins[has], 0], table.node[rows])
        assert np.array_equal(cell_of[pins[has], 1], table.bit[rows])

    def test_schedule_matches_the_object_key(self, design_table):
        _design, _nl, table = design_table
        rng = np.random.default_rng(23)
        pick = rng.permutation(len(table))[:6000]
        # Repeated rows tie on every key: the sort must keep them stable.
        pick = np.concatenate([pick, pick[:300]])
        subset = table[pick]
        objects = list(subset)
        expect = sorted(range(len(objects)),
                        key=lambda i: _locality_key(objects[i]))
        for batch_size in (64, 512):
            batches = schedule_fault_batches(subset, batch_size)
            assert np.concatenate(batches).tolist() == expect
            assert all(len(b) <= batch_size for b in batches)
        # An object sequence is scheduled through the same columns.
        assert np.concatenate(
            schedule_fault_batches(objects, 512)).tolist() == expect


class TestItemAccess:
    @pytest.fixture(scope="class")
    def small_table(self, small_design):
        nl = elaborate(small_design.graph)
        return enumerate_cell_faults(small_design.graph, nl)

    def test_index_slice_and_rows(self, small_table):
        table = small_table
        objects = list(table)
        assert len(objects) == len(table)
        assert table[3] == objects[3]
        assert table[-1] == objects[-1]
        with pytest.raises(IndexError):
            table[len(table)]
        assert isinstance(table[2:9], GateFaultTable)
        assert list(table[2:9]) == objects[2:9]
        rows = np.array([7, 1, 7, 4])
        assert list(table[rows]) == [objects[i] for i in rows]
        assert objects[0].label == objects[0].netlist_fault.label

    def test_objects_round_trip(self, small_table):
        objects = list(small_table)
        again = GateFaultTable.of(objects)
        assert list(again) == objects
        assert GateFaultTable.of(small_table) is small_table

    def test_unelaborated_cell_is_rejected(self, small_design):
        from repro.errors import FaultModelError
        from repro.gates import GateNetlist

        with pytest.raises(FaultModelError, match="no elaborated cell"):
            enumerate_cell_faults(small_design.graph, GateNetlist())
