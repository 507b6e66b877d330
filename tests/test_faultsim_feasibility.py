"""Property tests for the structural feasibility analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultModelError
from repro.faultsim import (feasible_cell_mask, interval_low_bits,
                            unread_operator_bits)
from repro.fixedpoint import cell_pattern_codes


def brute_force_mask(a_iv, b_iv, k, is_sub, a_step=1, b_step=1):
    """Enumerate the interval product and collect actual cell codes."""
    mask = 0
    width = k + 2
    a_vals = np.arange(a_iv[0], a_iv[1] + 1, a_step, dtype=np.int64)
    for b in range(b_iv[0], b_iv[1] + 1, b_step):
        codes = cell_pattern_codes(a_vals, np.full_like(a_vals, b),
                                   1 if is_sub else 0, width,
                                   invert_b=is_sub)
        for c in np.unique(codes[k]):
            mask |= 1 << int(c)
    return mask


class TestIntervalLowBits:
    @given(st.integers(-200, 200), st.integers(0, 400), st.integers(0, 6))
    def test_matches_enumeration(self, lo, span, k):
        hi = lo + span
        stats = interval_low_bits(lo, hi, k)
        half = 1 << k
        expected = {}
        for x in range(lo, hi + 1):
            b = (x >> k) & 1
            low = x & (half - 1)
            cur = expected.get(b)
            expected[b] = (min(cur[0], low), max(cur[1], low)) if cur else (low, low)
        got = {b: (mn, mx) for b, mn, mx in stats}
        assert set(got) == set(expected)
        for b in expected:
            # analysis may report a hull, never a subset
            assert got[b][0] <= expected[b][0]
            assert got[b][1] >= expected[b][1]

    def test_empty_interval_rejected(self):
        with pytest.raises(FaultModelError):
            interval_low_bits(5, 4, 2)


class TestFeasibleCellMask:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 60), st.integers(0, 60),
        st.integers(0, 60), st.integers(0, 60),
        st.integers(0, 4), st.booleans(),
    )
    def test_overapproximates_brute_force(self, a_lo, a_span, b_lo, b_span,
                                          k, is_sub):
        a_iv = (-a_lo, -a_lo + a_span)
        b_iv = (-b_lo, -b_lo + b_span)
        analytic = feasible_cell_mask(a_iv, b_iv, k, is_sub)
        brute = brute_force_mask(a_iv, b_iv, k, is_sub)
        # sound: everything that can happen is declared feasible
        assert brute & ~analytic == 0

    def test_exact_for_wide_independent_intervals(self):
        """Wide intervals make every pattern feasible (except the cin
        constraint at bit 0)."""
        mask = feasible_cell_mask((-4096, 4095), (-4096, 4095), 4, False)
        assert mask == 0xFF
        mask0 = feasible_cell_mask((-4096, 4095), (-4096, 4095), 0, False)
        assert mask0 == 0b01010101  # carry-in 0 at the LSB cell

    def test_two_valued_secondary_blocks_t1(self):
        """The case discovered on the real designs: b in {-1, 0} makes
        T1 (a=0,b=0,c=1) infeasible at every bit above 0 of an adder."""
        for k in range(1, 6):
            mask = feasible_cell_mask((-1024, 1023), (-1, 0), k, False)
            assert mask & (1 << 1) == 0, k

    def test_sign_extension_region_loses_patterns(self):
        # Cells far above BOTH operands' significant bits: a and b are
        # sign wires and the carry is pinned by the tiny low fields, so
        # T1 (0,0,1) and T6 (1,1,0) cannot be asserted.
        deep = feasible_cell_mask((-8, 8), (-8, 8), 9, False)
        assert deep & (1 << 1) == 0  # T1 infeasible
        assert deep & (1 << 6) == 0  # T6 infeasible

    def test_wide_primary_restores_t1_deep_in_the_word(self):
        # With a full-range primary the carry can ripple out of the
        # primary's low bits, so T1 is feasible even where b is a sign
        # wire — the reason pruning must use exact intervals, not widths.
        deep = feasible_cell_mask((-1024, 1023), (-8, 8), 9, False)
        assert deep & (1 << 1) != 0

    def test_exactness_spot_check(self):
        """For small intervals the analytic mask equals brute force (the
        hull approximation is exact when residue arcs do not wrap)."""
        a_iv, b_iv = (-20, 20), (-3, 3)
        for k in range(0, 5):
            for is_sub in (False, True):
                analytic = feasible_cell_mask(a_iv, b_iv, k, is_sub)
                brute = brute_force_mask(a_iv, b_iv, k, is_sub)
                assert analytic == brute, (k, is_sub)


class TestUnreadOperatorBits:
    def test_paper_designs(self, ctx):
        got = {name: unread_operator_bits(ctx.designs[name])
               for name in ("LP", "BP", "HP")}
        # LP node 75 (13-bit SUB) is read only by 12-bit node 76, and
        # node 120 (15-bit ADD) only by 14-bit node 121.
        assert got == {"LP": {75: (12,), 120: (14,)}, "BP": {}, "HP": {}}

    def test_no_gate_reads_an_unread_bit(self, ctx):
        from repro.gates import elaborate

        design = ctx.designs["LP"]
        nl = elaborate(design.graph)
        read = (set(nl.in0.tolist()) | set(nl.in1[nl.in1 >= 0].tolist())
                | set(nl.dff_d.tolist()) | set(nl.output_bits.tolist()))
        unread = unread_operator_bits(design.graph)
        assert unread
        for nid, bits in unread.items():
            assert int(nl.node_bits[nid][bits[0] - 1]) in read
            for bit in bits:
                assert int(nl.node_bits[nid][bit]) not in read
