"""The fast coverage engine: internal consistency and gate-level ground
truth cross-validation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faultsim import (
    UNSEEN,
    build_fault_universe,
    build_universe_from_cells,
    coverage_of_tracker,
    run_fault_coverage,
    track_patterns,
)
from repro.faultsim.patterns import PatternTracker
from repro.fixedpoint import Fixed, cell_pattern_codes
from repro.gates import variant_for_bit
from repro.generators import (
    MaxVarianceLfsr,
    Type1Lfsr,
    UniformWhiteGenerator,
    match_width,
)
from repro.rtl import Node, OpKind

from helpers import build_small_design
from test_fixedpoint_ops import oracle_codes


class TestPatternTracker:
    def test_first_seen_matches_brute_force(self, small_design, rng):
        """Tracker's first-occurrence indices vs direct recomputation."""
        uni = build_fault_universe(small_design.graph)
        raw = rng.integers(-2048, 2048, size=300)
        tracker = track_patterns(small_design.graph, uni, raw)

        from repro.rtl import simulate
        captured = {}
        def hook(node, a, b):
            captured[node.nid] = (a.copy(), b.copy())
        simulate(small_design.graph, raw, adder_hook=hook)

        for node in small_design.graph.arithmetic_nodes:
            a, b = captured[node.nid]
            codes = cell_pattern_codes(
                a, b, 1 if node.kind is OpKind.SUB else 0,
                node.fmt.width, invert_b=node.kind is OpKind.SUB)
            for bit in range(node.fmt.width):
                row = uni.cell_index[(node.nid, bit)]
                for p in range(8):
                    hits = np.nonzero(codes[bit] == p)[0]
                    expect = hits[0] if len(hits) else UNSEEN
                    assert tracker.first_seen[row, p] == expect

    @pytest.mark.parametrize("width", range(2, 21))
    @pytest.mark.parametrize("kind", [OpKind.ADD, OpKind.SUB])
    def test_first_seen_matches_ripple_oracle(self, width, kind, rng):
        """Word-level first occurrences vs a brute-force scan of the
        ripple oracle's codes, over a session fed in three segments."""
        is_sub = kind is OpKind.SUB
        node = Node(nid=3, kind=kind, srcs=(1, 2), fmt=Fixed(width, 0))
        specs = []
        for bit in range(width):
            variant = variant_for_bit(bit, width, is_sub)
            specs.append((node.nid, bit, variant, variant.feasible_mask))
        tracker = PatternTracker(build_universe_from_cells(specs, "oracle"))
        half = 1 << (width - 1)
        # Small operands first, so the upper cells' first occurrences of
        # most patterns fall in later segments, at non-zero offsets.
        spans = [(max(half >> 3, 1), 40), (half, 150), (half, 90)]
        a_all, b_all = [], []
        for span, length in spans:
            a = rng.integers(-span, span, size=length)
            b = rng.integers(-span, span, size=length)
            tracker.hook(node, a, b)
            tracker.advance(length)
            a_all.append(a)
            b_all.append(b)
        codes = oracle_codes(np.concatenate(a_all), np.concatenate(b_all),
                             1 if is_sub else 0, width, invert_b=is_sub)
        expected = np.full((width, 8), UNSEEN, dtype=np.int64)
        for bit in range(width):
            for p in range(8):
                hits = np.flatnonzero(codes[bit] == p)
                if len(hits):
                    expected[bit, p] = hits[0]
        assert np.array_equal(tracker.first_seen, expected)
        if width >= 4:
            assert np.any((expected >= 40) & (expected != UNSEEN))

    def test_incremental_sessions_continue_indices(self, small_design, rng):
        uni = build_fault_universe(small_design.graph)
        raw = rng.integers(-2048, 2048, size=200)
        t_whole = track_patterns(small_design.graph, uni, raw)
        t_parts = PatternTracker(uni)
        track_patterns(small_design.graph, uni, raw[:120], tracker=t_parts)
        track_patterns(small_design.graph, uni, raw[120:], tracker=t_parts)
        # Segment two replays registers from reset, so indices can only
        # be found at equal or later positions; first segment must agree.
        mask_first = t_whole.first_seen < 120
        assert np.array_equal(t_whole.first_seen[mask_first],
                              t_parts.first_seen[mask_first])

    def test_wrong_universe_rejected(self, small_design, rng):
        uni_a = build_fault_universe(small_design.graph)
        uni_b = build_fault_universe(small_design.graph)
        tracker = PatternTracker(uni_a)
        with pytest.raises(SimulationError):
            track_patterns(small_design.graph, uni_b,
                           rng.integers(-10, 10, size=4), tracker=tracker)

    def test_untested_patterns_query(self, small_design):
        uni = build_fault_universe(small_design.graph)
        tracker = PatternTracker(uni)
        node = small_design.graph.arithmetic_nodes[0]
        assert tracker.untested_patterns(node.nid, 1) == list(range(8))


class TestCoverageResult:
    def test_monotone_curve(self, small_design, rng):
        result = run_fault_coverage(small_design, UniformWhiteGenerator(12),
                                    512)
        pts, undetected = result.curve()
        assert np.all(np.diff(undetected) <= 0)
        assert undetected[-1] == result.missed()

    def test_detected_plus_missed_is_total(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 256)
        total = result.universe.fault_count
        assert result.detected() + result.missed() == total
        assert result.coverage() == pytest.approx(result.detected() / total)

    def test_at_parameter_counts_prefix(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 512)
        assert result.detected(1) <= result.detected(256) <= result.detected()

    def test_missed_faults_objects(self, small_design):
        result = run_fault_coverage(small_design, MaxVarianceLfsr(12), 64)
        missed = result.missed_faults()
        assert len(missed) == result.missed()

    def test_detect_time_definition(self, small_design):
        """A fault's detect time is the first vector whose cell pattern is
        in its (effective) detecting set."""
        result = run_fault_coverage(small_design, Type1Lfsr(12), 256)
        uni = result.universe
        gen = Type1Lfsr(12)
        raw = gen.sequence(256)
        tracker = track_patterns(small_design.graph, uni, raw)
        for f in uni.faults[::17]:
            row = uni.fault_cell[f.index]
            times = [tracker.first_seen[row, p] for p in range(8)
                     if f.effective_mask & (1 << p)]
            assert result.detect_time[f.index] == min(times)

    def test_zero_vectors_rejected(self, small_design):
        with pytest.raises(SimulationError):
            run_fault_coverage(small_design, Type1Lfsr(12), 0)

    def test_curve_agrees_with_missed_at_every_point(self, small_design):
        """The curve and missed(at=...) share one definition: a fault
        with detect time t is in after t+1 vectors.  Checking every
        prefix pins the boundary semantics exactly (no off-by-one)."""
        result = run_fault_coverage(small_design, Type1Lfsr(12), 200)
        pts = np.arange(1, 201)
        _, undetected = result.curve(points=pts)
        for p, u in zip(pts, undetected):
            assert u == result.missed(at=int(p)), p


class TestGateLevelCrossValidation:
    """The central correctness claim of the fast engine: cell-level
    detection (excitation with ideal observability) is consistent with
    exact gate-level injection."""

    @pytest.fixture(scope="class")
    def setup(self, rng=None):
        from repro.gates import elaborate, enumerate_cell_faults, \
            simulate_netlist, netlist_fault_detected
        rng = np.random.default_rng(99)
        design = build_small_design("plain")
        uni = build_fault_universe(design.graph)
        raw = rng.integers(-2048, 2048, size=192)
        result_tracker = track_patterns(design.graph, uni, raw)
        cov = coverage_of_tracker(result_tracker)
        nl = elaborate(design.graph)
        gate_faults = {(f.node_id, f.bit, f.cell_fault.name): f
                       for f in enumerate_cell_faults(design.graph, nl)}
        golden = simulate_netlist(nl, raw)["output"]
        return design, uni, raw, cov, nl, gate_faults, golden

    def test_gate_detection_implies_excitation(self, setup):
        """Anything the exact simulator detects, the fast engine must
        count as excited (excitation is necessary for detection)."""
        from repro.gates import netlist_fault_detected
        design, uni, raw, cov, nl, gate_faults, golden = setup
        undetected = {f.index for f in cov.missed_faults()}
        for f in uni.faults[::7]:
            gf = gate_faults[(f.node_id, f.bit, f.cell_fault.name)]
            gate_hit = netlist_fault_detected(nl, raw, gf.netlist_fault,
                                              golden=golden)
            if gate_hit:
                assert f.index not in undetected, f.label

    def test_excitation_mostly_propagates(self, setup):
        """The ideal-observability assumption: excited faults reach the
        output in the overwhelming majority of cases on these linear
        datapaths."""
        from repro.gates import netlist_fault_detected
        design, uni, raw, cov, nl, gate_faults, golden = setup
        sample = uni.faults[::7]
        excited = [f for f in sample
                   if cov.detect_time[f.index] != UNSEEN]
        propagated = 0
        for f in excited:
            gf = gate_faults[(f.node_id, f.bit, f.cell_fault.name)]
            if netlist_fault_detected(nl, raw, gf.netlist_fault,
                                      golden=golden):
                propagated += 1
        assert propagated / len(excited) > 0.93


def _excitation_and_detection(graph, nl, faults, raw):
    """``(cell excitation time, gate chunk-end detection time)`` per
    fault: the unpruned universe tracked over ``raw``, aligned by row
    with the gate fault table graded exactly over the same stimulus."""
    from repro.gates import gate_level_missed

    universe = build_fault_universe(graph, prune_untestable=False)
    assert np.array_equal(universe.fault_class, faults.fault_class)
    excite = coverage_of_tracker(
        track_patterns(graph, universe, raw)).detect_time
    detect = np.full(len(faults), -1, dtype=np.int64)
    gate_level_missed(nl, raw, faults, detect_times=detect)
    return excite, detect


def _assert_detection_needs_excitation(excite, detect):
    hit = detect >= 0
    assert hit.any()
    assert not np.any(excite[hit] == UNSEEN), np.flatnonzero(
        hit & (excite == UNSEEN))[:10]
    late = hit & (detect <= excite)
    assert not late.any(), np.flatnonzero(late)[:10]


class TestExcitationNecessity:
    """Per fault: a gate-level detection happens only after the cell-level
    engine saw the fault excited.  The chunk-end detection time closes
    the chunk holding the first divergent vector, which cannot precede
    the first detecting pattern at the fault's cell, so it is strictly
    greater than the excitation time."""

    def test_small_design_whole_universe(self):
        from repro.gates import elaborate, enumerate_cell_faults

        design = build_small_design("plain")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = np.random.default_rng(99).integers(-2048, 2048, size=192)
        _assert_detection_needs_excitation(
            *_excitation_and_detection(design.graph, nl, faults, raw))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["LP", "BP", "HP"])
    def test_reference_designs_full_universe(self, ctx, name):
        from repro.cluster.shards import grading_problem

        design, nl, faults, raw = grading_problem(
            ctx, name, "lfsr1", 1024, ctx.config.generator_width)
        _assert_detection_needs_excitation(
            *_excitation_and_detection(design.graph, nl, faults, raw))
