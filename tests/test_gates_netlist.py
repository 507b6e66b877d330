"""Gate-level netlist elaboration and simulation: must agree bit-for-bit
with the RTL simulator, with and without injected faults."""

import numpy as np
import pytest

from repro.gates import (
    bits_to_raw,
    elaborate,
    enumerate_cell_faults,
    gate_level_missed,
    netlist_fault_detected,
    pack_input_bits,
    simulate_netlist,
)
from repro.rtl import InjectedFault, simulate

from helpers import SMALL_COEFSETS, build_small_design


class TestBitPacking:
    def test_roundtrip(self, rng):
        raw = rng.integers(-2048, 2048, size=64)
        bits = pack_input_bits(raw, 12)
        assert np.array_equal(bits_to_raw(bits), raw)

    def test_sign_bit_row(self):
        bits = pack_input_bits([-1, 0, 5], 4)
        assert list(bits[3].astype(int)) == [1, 0, 0]


class TestElaboration:
    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS))
    def test_netlist_matches_rtl(self, key, rng):
        design = build_small_design(key)
        nl = elaborate(design.graph)
        raw = rng.integers(-2048, 2048, size=200)
        rtl_out = simulate(design.graph, raw).raw(design.graph.output_id)
        nl_out = simulate_netlist(nl, raw)["output"]
        assert np.array_equal(rtl_out, nl_out)

    def test_gate_count_scales_with_operators(self, small_design):
        nl = elaborate(small_design.graph)
        # ~5 gates per full-adder cell plus subtractor inverters
        cells = sum(n.fmt.width for n in small_design.graph.arithmetic_nodes)
        assert 2 * cells <= nl.gate_count <= 7 * cells

    def test_dff_count_matches_register_bits(self, small_design):
        nl = elaborate(small_design.graph)
        from repro.rtl import OpKind
        bits = sum(n.fmt.width for n in small_design.graph.nodes
                   if n.kind is OpKind.DELAY)
        assert len(nl.dffs) == bits

    def test_cell_sites_cover_all_cells(self, small_design):
        nl = elaborate(small_design.graph)
        for node in small_design.graph.arithmetic_nodes:
            for bit in range(node.fmt.width):
                assert (node.nid, bit) in nl.cell_sites


class TestFaultInjectionEquivalence:
    def test_rtl_and_netlist_injection_agree(self, small_design, rng):
        """The LUT-based RTL injector and the structural netlist injector
        are two independent implementations of the same fault; they must
        produce identical faulty outputs."""
        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = rng.integers(-2048, 2048, size=150)
        for f in faults[::13]:
            rtl_fault = InjectedFault(
                node_id=f.node_id, bit=f.bit,
                sum_lut=f.cell_fault.sum_array(),
                cout_lut=f.cell_fault.cout_array(),
            )
            y_rtl = simulate(small_design.graph, raw,
                             fault=rtl_fault).raw(small_design.graph.output_id)
            y_nl = simulate_netlist(nl, raw, fault=f.netlist_fault)["output"]
            assert np.array_equal(y_rtl, y_nl), f.label

    def test_detection_equals_output_difference(self, small_design, rng):
        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = rng.integers(-2048, 2048, size=100)
        golden = simulate_netlist(nl, raw)["output"]
        f = faults[0]
        detected = netlist_fault_detected(nl, raw, f.netlist_fault,
                                          golden=golden)
        faulty = simulate_netlist(nl, raw, fault=f.netlist_fault)["output"]
        assert detected == bool(np.any(faulty != golden))


class TestGateLevelFaultSimulation:
    def test_small_design_mostly_covered_by_noise(self, rng):
        design = build_small_design("single_digit")
        nl = elaborate(design.graph)
        raw = rng.integers(-2048, 2048, size=256)
        faults = enumerate_cell_faults(design.graph, nl)
        missed = gate_level_missed(nl, raw, faults)
        total = len(faults)
        assert total > 0
        assert (total - len(missed)) / total > 0.9
