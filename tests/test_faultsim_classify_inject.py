"""Miss classification (difficult vs near-redundant) and fault injection."""

import numpy as np
import pytest

from repro.faultsim import (
    activation_counts,
    build_fault_universe,
    classify_missed_faults,
    coverage_summary,
    fault_effect,
    faulty_output,
    missed_fault_map,
    run_fault_coverage,
    to_injected_fault,
    track_patterns,
)
from repro.generators import SineGenerator, Type1Lfsr, UniformWhiteGenerator
from repro.generators.base import match_width

from helpers import build_small_design


class TestInjection:
    def test_injected_fault_changes_output_when_excited(self, small_design):
        uni = build_fault_universe(small_design.graph)
        gen = UniformWhiteGenerator(12, seed=3)
        result = run_fault_coverage(small_design, gen, 256, universe=uni)
        detected = [f for f in uni.faults
                    if result.detect_time[f.index] < 256][:10]
        from repro.rtl import simulate
        raw = gen.sequence(256)
        good = simulate(small_design.graph, raw).output
        changed = 0
        for f in detected:
            bad = faulty_output(small_design, f, gen, 256)
            if np.any(bad != good):
                changed += 1
        # excitation guarantees a local error; nearly all reach the output
        assert changed >= 8

    def test_unexcited_fault_leaves_output_unchanged(self, small_design):
        uni = build_fault_universe(small_design.graph)
        gen = UniformWhiteGenerator(12, seed=3)
        result = run_fault_coverage(small_design, gen, 256, universe=uni)
        missed = result.missed_faults()
        if not missed:
            pytest.skip("everything detected on this design")
        effect = fault_effect(small_design, missed[0], gen, 256)
        assert np.all(effect == 0)

    def test_injected_fault_lut_shapes(self, small_design):
        uni = build_fault_universe(small_design.graph)
        inj = to_injected_fault(uni.faults[0])
        assert inj.sum_lut.shape == (8,)
        assert inj.cout_lut.shape == (8,)
        assert inj.node_id == uni.faults[0].node_id


class TestClassification:
    def test_split_is_exhaustive(self, small_design):
        uni = build_fault_universe(small_design.graph)
        result = run_fault_coverage(small_design, Type1Lfsr(12), 64,
                                    universe=uni)
        stimulus = SineGenerator(12, freq=0.02, amplitude=0.9)
        cls = classify_missed_faults(small_design, result, stimulus,
                                     n_vectors=2048)
        assert cls.total_missed == result.missed()
        assert cls.serious_count == len(cls.difficult)

    def test_richer_stimulus_finds_more_serious_faults(self, small_design):
        uni = build_fault_universe(small_design.graph)
        result = run_fault_coverage(small_design, Type1Lfsr(12), 32,
                                    universe=uni)
        weak = classify_missed_faults(
            small_design, result,
            SineGenerator(12, freq=0.02, amplitude=0.05), n_vectors=2048)
        strong = classify_missed_faults(
            small_design, result,
            UniformWhiteGenerator(12), n_vectors=2048)
        assert strong.serious_count >= weak.serious_count

    def test_activation_counts_cover_universe(self, small_design):
        uni = build_fault_universe(small_design.graph)
        act = activation_counts(small_design, uni, UniformWhiteGenerator(12),
                                n_vectors=2048)
        assert len(act) == uni.fault_count
        assert act.sum() > 0.9 * uni.fault_count
        # Per fault: excitable iff its cell saw one of its detecting codes.
        gen = UniformWhiteGenerator(12)
        raw = match_width(gen.sequence(2048), gen.width,
                          small_design.input_fmt.width)
        tracker = track_patterns(small_design.graph, uni, raw)
        seen = tracker.seen_mask()
        expected = [int(any(seen[uni.fault_cell[f.index], p]
                            for p in f.cell_fault.detecting_codes))
                    for f in uni.faults]
        assert act.tolist() == expected


class TestReports:
    def test_coverage_summary_mentions_counts(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 128)
        text = coverage_summary(result)
        assert str(result.missed()) in text
        assert small_design.name in text

    def test_missed_fault_map(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 16)
        text = missed_fault_map(result)
        assert "missed faults" in text

    def test_missed_fault_map_empty(self, small_design):
        result = run_fault_coverage(small_design, UniformWhiteGenerator(12),
                                    4096)
        if result.missed() == 0:
            assert missed_fault_map(result) == "no missed faults"
