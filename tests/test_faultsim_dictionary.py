"""Tests for fault universe assembly and structural pruning."""

import numpy as np
import pytest

from repro.errors import FaultModelError
from repro.faultsim import (build_csa_universe, build_fault_universe,
                            design_feasible_masks)
from repro.faultsim.csa import _csa_cell_specs
from repro.gates import variant_for_bit
from repro.rtl import OpKind, carry_save_from_coefficients

from helpers import SMALL_COEFSETS, build_small_design


def graph_cell_specs(graph, prune_untestable=True):
    """``(node_id, bit, variant, feasible_mask)`` of every operator cell,
    each variant chosen by :func:`variant_for_bit`."""
    masks = design_feasible_masks(graph) if prune_untestable else None
    return [(node.nid, bit,
             variant_for_bit(bit, node.fmt.width, node.kind is OpKind.SUB),
             0xFF if masks is None else masks[(node.nid, bit)])
            for node in graph.arithmetic_nodes
            for bit in range(node.fmt.width)]


def reference_universe(cell_specs):
    """The per-fault enumeration: every class of every cell, in cell
    order, dropping classes whose feasible detect mask is empty.

    Returns ``(cells, rows, uncollapsed, untestable)`` with one ``(cell
    row, node_id, bit, cell_fault, effective_mask)`` per kept fault.
    """
    cells, rows = [], []
    uncollapsed = untestable = 0
    for node_id, bit, variant, feasible in cell_specs:
        cells.append((node_id, bit))
        uncollapsed += variant.uncollapsed_count
        for cf in variant.faults:
            effective = cf.detect_mask & feasible
            if effective == 0:
                untestable += 1
            else:
                rows.append((len(cells) - 1, node_id, bit, cf, effective))
    return cells, rows, uncollapsed, untestable


def assert_matches_reference(uni, cell_specs):
    cells, rows, uncollapsed, untestable = reference_universe(cell_specs)
    assert uni.cells == cells
    assert uni.fault_cell.dtype == np.int64
    assert uni.fault_mask.dtype == np.uint8
    assert uni.fault_cell.tolist() == [r[0] for r in rows]
    assert uni.fault_mask.tolist() == [r[4] for r in rows]
    assert [(f.index, f.node_id, f.bit, f.effective_mask)
            for f in uni.faults] == [(i, r[1], r[2], r[4])
                                     for i, r in enumerate(rows)]
    # The very CellFault objects of the cell dictionary, not copies.
    assert all(f.cell_fault is r[3] for f, r in zip(uni.faults, rows))
    assert (uni.fault_count, uni.uncollapsed_count, uni.untestable_count) \
        == (len(rows), uncollapsed, untestable)


class TestUniverseStructure:
    def test_cells_cover_every_operator_bit(self, small_design):
        uni = build_fault_universe(small_design.graph, prune_untestable=False)
        expected = sum(n.fmt.width for n in small_design.graph.arithmetic_nodes)
        assert uni.cell_count == expected

    def test_unpruned_count_matches_variant_sums(self, small_design):
        uni = build_fault_universe(small_design.graph, prune_untestable=False)
        expected = 0
        for node in small_design.graph.arithmetic_nodes:
            for bit in range(node.fmt.width):
                v = variant_for_bit(bit, node.fmt.width,
                                    node.kind is OpKind.SUB)
                expected += v.fault_count
        assert uni.fault_count == expected
        assert uni.untestable_count == 0

    def test_cells_of_one_operator_are_contiguous(self, small_design):
        uni = build_fault_universe(small_design.graph)
        for node in small_design.graph.arithmetic_nodes:
            base = uni.cell_index[(node.nid, 0)]
            for bit in range(node.fmt.width):
                assert uni.cell_index[(node.nid, bit)] == base + bit

    def test_fault_arrays_consistent(self, small_design):
        uni = build_fault_universe(small_design.graph)
        assert len(uni.fault_cell) == uni.fault_count
        assert len(uni.fault_mask) == uni.fault_count
        for f in uni.faults[:50]:
            assert uni.fault_cell[f.index] == uni.cell_index[(f.node_id, f.bit)]
            assert uni.fault_mask[f.index] == f.effective_mask

    def test_pruning_only_removes(self, small_design):
        full = build_fault_universe(small_design.graph, prune_untestable=False)
        pruned = build_fault_universe(small_design.graph)
        assert pruned.fault_count + pruned.untestable_count == full.fault_count

    def test_effective_masks_subset_of_detect_masks(self, small_design):
        uni = build_fault_universe(small_design.graph)
        for f in uni.faults:
            assert f.effective_mask != 0
            assert f.effective_mask & ~f.cell_fault.detect_mask == 0

    def test_faults_at_lookup(self, small_design):
        uni = build_fault_universe(small_design.graph)
        node = small_design.graph.arithmetic_nodes[0]
        fs = uni.faults_at(node.nid, 1)
        assert fs and all(f.bit == 1 and f.node_id == node.nid for f in fs)

    def test_faults_at_unknown_cell(self, small_design):
        uni = build_fault_universe(small_design.graph)
        with pytest.raises(FaultModelError):
            uni.faults_at(10**6, 0)


class TestColumnarTable:
    """The array-built table equals the per-fault enumeration."""

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS))
    def test_small_designs(self, key, prune):
        graph = build_small_design(key).graph
        uni = build_fault_universe(graph, prune_untestable=prune)
        assert_matches_reference(uni, graph_cell_specs(graph, prune))

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("name", ["LP", "BP", "HP"])
    def test_reference_designs(self, ctx, name, prune):
        graph = ctx.designs[name].graph
        uni = build_fault_universe(graph, name=name, prune_untestable=prune)
        assert_matches_reference(uni, graph_cell_specs(graph, prune))

    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS))
    def test_carry_save_chain(self, key):
        csa = carry_save_from_coefficients(
            SMALL_COEFSETS[key], name=f"csa-{key}", coef_frac=8,
            acc_frac=10, width=12, max_nonzeros=4)
        assert_matches_reference(build_csa_universe(csa),
                                 _csa_cell_specs(csa))

    @pytest.mark.parametrize("name", ["LP", "BP", "HP"])
    def test_gate_fault_i_is_unpruned_row_i(self, ctx, name):
        from repro.gates import enumerate_cell_faults

        graph = ctx.designs[name].graph
        unpruned = build_fault_universe(graph, prune_untestable=False)
        gate = enumerate_cell_faults(graph, ctx.netlist(name))
        assert [(f.node_id, f.bit, f.cell_fault) for f in gate] \
            == [(f.node_id, f.bit, f.cell_fault) for f in unpruned.faults]

    def test_faults_are_built_only_on_demand(self):
        """A full Table 4 pass never builds a DesignFault list."""
        from repro.experiments import ExperimentContext
        from repro.experiments.tables import table4

        ctx = ExperimentContext()
        table4(ctx)
        assert "faults" not in ctx.universe("LP").__dict__


class TestPrunedFaultsAreUndetectable:
    def test_no_input_ever_detects_a_pruned_fault(self, rng):
        """Gate-level ground truth: faults pruned as structurally
        untestable must never be detected, even by an aggressive mix of
        random, extreme and two-valued stimuli."""
        from repro.gates import elaborate, enumerate_cell_faults, \
            netlist_fault_detected, simulate_netlist
        design = build_small_design("plain")
        full = build_fault_universe(design.graph, prune_untestable=False)
        pruned = build_fault_universe(design.graph)
        kept = {(f.node_id, f.bit, f.cell_fault.name) for f in pruned.faults}
        removed = [f for f in full.faults
                   if (f.node_id, f.bit, f.cell_fault.name) not in kept]
        if not removed:
            pytest.skip("no faults pruned on this small design")
        nl = elaborate(design.graph)
        by_loc = {(f.node_id, f.bit, f.cell_fault.name): f
                  for f in enumerate_cell_faults(design.graph, nl)}
        stimulus = np.concatenate([
            rng.integers(-2048, 2048, size=512),
            np.tile([2047, -2048], 64),
            np.tile([2047, 0, -2048, 0], 32),
        ])
        golden = simulate_netlist(nl, stimulus)["output"]
        for f in removed:
            ef = by_loc[(f.node_id, f.bit, f.cell_fault.name)]
            assert not netlist_fault_detected(nl, stimulus, ef.netlist_fault,
                                              golden=golden), f.label
