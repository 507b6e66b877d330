"""Carry-save accumulation chain: value correctness, structure, coverage."""

import numpy as np
import pytest

from repro.errors import DesignError, SimulationError
from repro.faultsim import build_csa_universe, run_csa_fault_coverage
from repro.fixedpoint import wrap
from repro.generators import DecorrelatedLfsr, UniformWhiteGenerator
from repro.rtl import carry_save_from_coefficients, design_from_coefficients, simulate

from helpers import SMALL_COEFSETS
from test_fixedpoint_ops import carry_chain


def build_csa(key="plain", **kwargs):
    defaults = dict(name=f"csa-{key}", coef_frac=8, acc_frac=10, width=12,
                    max_nonzeros=4)
    defaults.update(kwargs)
    return carry_save_from_coefficients(SMALL_COEFSETS[key], **defaults)


def delayed(x, d):
    """``x`` through ``d`` reset-to-zero registers."""
    out = np.zeros_like(x)
    out[d:] = x[:len(x) - d]
    return out


class TestValueCorrectness:
    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS))
    def test_matches_convolution(self, key, rng):
        csa = build_csa(key)
        raw = rng.integers(-2048, 2048, size=300)
        out = csa.simulate(raw)["output"] * csa.fmt.lsb
        ref = np.convolve(raw / 2**11, csa.coefficients)[:300]
        budget = (len(csa.stages) + 2) * csa.fmt.lsb
        assert np.max(np.abs(out - ref)) <= budget

    def test_matches_ripple_realization(self, rng):
        """Same coefficients, same binary point: carry-save and ripple
        chains compute the same filter (up to identical truncation)."""
        ripple = design_from_coefficients(SMALL_COEFSETS["plain"],
                                          name="r", coef_frac=8, acc_frac=10)
        csa = build_csa("plain", acc_frac=10, width=12)
        raw = rng.integers(-2048, 2048, size=256)
        y_r = simulate(ripple.graph, raw).engineering(ripple.graph.output_id)
        y_c = csa.simulate(raw)["output"] * csa.fmt.lsb
        assert np.array_equal(
            np.asarray(y_r), np.asarray(y_c)
        ) or np.max(np.abs(y_r - y_c)) <= 2 * csa.fmt.lsb

    def test_zero_tap_still_delays(self, rng):
        csa = build_csa("with_zero")
        raw = rng.integers(-2048, 2048, size=200)
        out = csa.simulate(raw)["output"] * csa.fmt.lsb
        ref = np.convolve(raw / 2**11, csa.coefficients)[:200]
        assert np.max(np.abs(out - ref)) <= (len(csa.stages) + 2) * csa.fmt.lsb


class TestStructure:
    def test_register_pairs_equal_tap_boundaries(self):
        csa = build_csa("plain")
        assert csa.register_pairs == len(SMALL_COEFSETS["plain"]) - 1

    def test_register_bits_double_a_uniform_ripple_chain(self):
        csa = build_csa("plain")
        assert csa.register_bits == 2 * csa.fmt.width * csa.register_pairs

    def test_compressor_count_is_digit_count(self):
        csa = build_csa("plain")
        from repro.csd import quantize_filter
        import numpy as np
        coefs = np.asarray(SMALL_COEFSETS["plain"])
        coefs = coefs * (0.99 / np.sum(np.abs(coefs)))
        qs = quantize_filter(coefs, frac=8, max_nonzeros=4)
        assert csa.compressor_count == sum(q.nonzeros for q in qs)

    def test_all_zero_rejected(self):
        with pytest.raises(DesignError):
            carry_save_from_coefficients([0.0, 0.0], scale=False)

    def test_bad_input_rejected(self):
        csa = build_csa()
        with pytest.raises(SimulationError):
            csa.simulate([10**6])


class TestFaultCoverage:
    def test_universe_covers_all_cells(self):
        csa = build_csa()
        uni = build_csa_universe(csa)
        width = csa.fmt.width
        assert uni.cell_count == (csa.compressor_count + 1) * width

    def test_coverage_session_runs(self):
        csa = build_csa()
        result = run_csa_fault_coverage(csa, DecorrelatedLfsr(12), 1024)
        assert 0.5 < result.coverage() < 1.0

    def test_observer_words_are_consistent_with_values(self, rng):
        """Each rank's cell input words produce the next rank's (S, C),
        and the merge adder's carry word is the ripple carry of S + C."""
        csa = build_csa("plain")
        width = csa.fmt.width
        raw = rng.integers(-2048, 2048, size=64)
        calls = []
        out = csa.simulate(
            raw, observer=lambda *args: calls.append(args))["output"]
        ids = [s.stage_id for s in csa.stages] + [csa.MERGE_ID]
        assert [call[0] for call in calls] == ids
        assert all(call[1] == width for call in calls)
        assert any(s.subtract for s in csa.stages)
        delays = [s.delays_before for s in csa.stages[1:]]
        delays.append(csa.trailing_delays)
        for stage, (_, _, s, c, t), (_, _, s_next, c_next, _), d in zip(
                csa.stages, calls, calls[1:], delays):
            majority = (s & c) | (t & (s ^ c))
            inject = 1 if stage.subtract else 0
            assert np.array_equal(s_next, delayed(wrap(s ^ c ^ t, width), d))
            assert np.array_equal(
                c_next, delayed(wrap((majority << 1) | inject, width), d))
        _, _, s, c, carry = calls[-1]
        carries = carry_chain(s, c, 0, width)
        for k in range(width):
            assert np.array_equal((carry >> k) & 1, carries[k])
        assert np.array_equal(wrap(s + c, width), out)

    def test_more_vectors_never_hurt(self):
        csa = build_csa()
        gen = UniformWhiteGenerator(12)
        short = run_csa_fault_coverage(csa, gen, 128)
        long = run_csa_fault_coverage(csa, gen, 1024)
        assert long.missed() <= short.missed()
