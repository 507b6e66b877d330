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
from repro.gates import VARIANT_KINDS
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
        assert nl.dff_count == len(nl.dff_q) == bits

    def test_cell_sites_cover_all_cells(self, small_design):
        nl = elaborate(small_design.graph)
        want = {(node.nid, bit) for node in small_design.graph.arithmetic_nodes
                for bit in range(node.fmt.width)}
        got = set(zip(nl.cell_node.tolist(), nl.cell_bit.tolist()))
        assert got == want and len(nl.cell_node) == len(want)
        for node, bit in sorted(want):
            assert nl.cell_sites(node, bit)


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


def _two_bit_operator(kind):
    """``y = x (op) x z^-1`` on 2-bit words: the narrowest adder or
    subtractor the RTL accepts, one ``lsb`` cell and one ``msb`` cell."""
    from repro.fixedpoint import Fixed
    from repro.rtl import Graph, OpKind

    fmt = Fixed(2, 0)
    graph = Graph(name=f"two-bit-{kind.value}")
    x = graph.add(OpKind.INPUT, fmt=fmt)
    d = graph.add(OpKind.DELAY, (x.nid,), fmt=fmt)
    y = graph.add(kind, (x.nid, d.nid), fmt=fmt)
    graph.add(OpKind.OUTPUT, (y.nid,), fmt=fmt)
    return graph


class TestNarrowOperators:
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_two_bit_operator_matches_rtl(self, op, rng):
        from repro.rtl import OpKind

        graph = _two_bit_operator(OpKind(op))
        nl = elaborate(graph)
        assert sorted(nl.cell_variant.tolist()) == sorted(
            VARIANT_KINDS.index(v)
            for v in ("msb", "lsb1" if op == "sub" else "lsb0"))
        raw = rng.integers(-2, 2, size=64)
        rtl_out = simulate(graph, raw).raw(graph.output_id)
        assert np.array_equal(simulate_netlist(nl, raw)["output"], rtl_out)
        for f in enumerate_cell_faults(graph, nl):
            rtl_fault = InjectedFault(
                node_id=f.node_id, bit=f.bit,
                sum_lut=f.cell_fault.sum_array(),
                cout_lut=f.cell_fault.cout_array())
            assert np.array_equal(
                simulate_netlist(nl, raw, fault=f.netlist_fault)["output"],
                simulate(graph, raw, fault=rtl_fault).raw(graph.output_id)
            ), f.label


class TestPinnedNetlists:
    """The paper designs' netlists, pinned by content.

    The ``gateprog`` cache key is the store's hash of the payload
    ``{"netlist": netlist_fingerprint(nl)}`` (plus the code version),
    so equal payload digests mean equal ``gateprog`` keys; the Verilog
    digest pins net names, gate order and flop order as well.
    """

    PAYLOAD = {
        "LP": "6882f7a846054bbc441ba64c339287883dff7b6e5b5f0a4a956e49e90df0fc14",
        "BP": "c2086527f93c06dda78115585cea6cdd437ab6c912c57b2a26c1c1f41d14db38",
        "HP": "253cd5db199edd575d927c15a470dd10020087a5bc3436a996f3573cca969cc9",
    }
    LP_VERILOG = (
        "74c0c51639b8a17a0d85d530a9e703df4f9af488852012035f3f0e768c587dcb")

    @pytest.mark.parametrize("name", sorted(PAYLOAD))
    def test_gateprog_payload(self, name, ctx):
        from repro.cache.keys import netlist_fingerprint, stable_hash

        nl = elaborate(ctx.designs[name].graph)
        digest = stable_hash({"netlist": netlist_fingerprint(nl)})
        assert digest == self.PAYLOAD[name]

    def test_lp_verilog(self, ctx):
        import hashlib

        from repro.gates import netlist_to_verilog

        text = netlist_to_verilog(elaborate(ctx.designs["LP"].graph))
        assert hashlib.sha256(text.encode()).hexdigest() == self.LP_VERILOG


def test_grading_worker_imports_no_rtl_or_scipy():
    """A spawn grading worker imports ``repro.parallel.gatework``; the
    RTL layer and scipy are for building designs, not grading them."""
    import subprocess
    import sys

    code = ("import sys, repro.parallel.gatework; "
            "print(sorted(m for m in ('repro.rtl', 'scipy') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
