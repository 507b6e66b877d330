"""Design-space exploration and the per-tap testability report."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis import type1_lfsr_model
from repro.faultsim import run_fault_coverage
from repro.faultsim.report import testability_report as tap_report
from repro.filters import (
    LOWPASS_SPEC,
    FilterSpec,
    explore_design_space,
    response_quality,
)
from repro.filters.design import design_prototype
from repro.generators import Type1Lfsr

from helpers import build_small_design

#: A cheap spec for sweep tests: short filter, loose bands.
SMALL_SPEC = FilterSpec(
    name="mini-lp", kind="lowpass", numtaps=21,
    bands=(0.0, 0.08, 0.2, 0.5), desired=(1.0, 0.0), weight=(1.0, 1.0),
)


class TestResponseQuality:
    def test_prototype_meets_its_spec(self):
        coefs = design_prototype(SMALL_SPEC)
        atten, ripple = response_quality(coefs, SMALL_SPEC)
        assert atten > 20.0
        assert ripple < 3.0

    def test_coarse_quantization_degrades_stopband(self):
        coefs = design_prototype(SMALL_SPEC)
        fine_atten, _ = response_quality(coefs, SMALL_SPEC)
        coarse = np.round(coefs * 16) / 16  # 4-bit grid
        coarse_atten, _ = response_quality(coarse, SMALL_SPEC)
        assert coarse_atten < fine_atten


class TestExploreDesignSpace:
    @pytest.fixture(scope="class")
    def points(self):
        return explore_design_space(SMALL_SPEC, budgets=(1, 2, 4),
                                    fracs=(10, 14))

    def test_grid_covered(self, points):
        combos = {(p.max_nonzeros, p.coef_frac) for p in points}
        assert combos == {(b, f) for b in (1, 2, 4) for f in (10, 14)}

    def test_adders_monotone_in_budget(self, points):
        for frac in (10, 14):
            line = sorted((p.max_nonzeros, p.adders)
                          for p in points if p.coef_frac == frac)
            adders = [a for _, a in line]
            assert adders == sorted(adders)

    def test_stopband_improves_with_budget(self, points):
        """More digits per coefficient buy stopband attenuation."""
        for frac in (14,):
            by_budget = {p.max_nonzeros: p.stopband_db
                         for p in points if p.coef_frac == frac}
            assert by_budget[4] > by_budget[1]

    def test_rows_render(self, points):
        row = points[0].row()
        assert len(row) == 5


class TestTestabilityReport:
    def test_report_structure(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 128)
        text = tap_report(small_design, result)
        assert "testability report" in text
        # one row per tap plus header/footer
        assert len(text.splitlines()) >= len(small_design.taps) + 2

    def test_sigma_column_with_model(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 128)
        text = tap_report(small_design, result,
                                  model=type1_lfsr_model(12))
        assert "predicted sigma" in text

    def test_report_totals_match_result(self, small_design):
        result = run_fault_coverage(small_design, Type1Lfsr(12), 128)
        text = tap_report(small_design, result)
        rows = [l.split() for l in text.splitlines()[2:]
                if l and l[0] == " " or (l and l.lstrip()[0].isdigit())]
        missed_total = sum(int(r[3]) for r in rows if len(r) >= 4
                           and r[0].isdigit())
        assert missed_total == result.missed()
        # Each tap's fault total: its operators' faults in the universe.
        by_node = Counter(f.node_id for f in result.universe.faults)
        totals = {int(r[0]): int(r[2]) for r in rows
                  if len(r) >= 4 and r[0].isdigit()}
        assert totals == {tap.index: sum(by_node[n] for n in tap.operators)
                          for tap in small_design.taps}

    def test_lowpass_report_flags_midchain_taps(self, ctx):
        """On the LP design under LFSR-1, the missed faults concentrate
        in the attenuated mid-chain region."""
        result = ctx.coverage("LP", ctx.standard_generators()["LFSR-1"],
                              ctx.config.table4_vectors)
        design = ctx.designs["LP"]
        text = tap_report(design, result)
        rows = {}
        for line in text.splitlines()[2:]:
            parts = line.split()
            if len(parts) >= 4 and parts[0].isdigit():
                rows[int(parts[0])] = int(parts[3])
        mid = sum(rows.get(t, 0) for t in range(10, 40))
        edges = sum(rows.get(t, 0) for t in list(range(0, 5)) +
                    list(range(56, 61)))
        assert mid > edges
