"""Tests for spectrum estimation and the Figure 4 characterizations."""

import numpy as np
import pytest

from repro.analysis import (
    band_power,
    exact_period_spectrum,
    generator_spectrum,
    power_db,
    welch_spectrum,
)
from repro.errors import AnalysisError
from repro.generators import (
    DecorrelatedLfsr,
    MaxVarianceLfsr,
    RampGenerator,
    Type1Lfsr,
    Type2Lfsr,
)


class TestEstimators:
    def test_parseval_normalization(self, rng):
        x = rng.normal(0, 0.3, size=1024)
        freqs, power = exact_period_spectrum(x)
        assert np.mean(power) == pytest.approx(np.mean(x**2), rel=1e-9)

    def test_pure_tone_concentrates(self):
        n = 512
        x = np.sin(2 * np.pi * 16 * np.arange(n) / n)
        freqs, power = exact_period_spectrum(x)
        assert power.argmax() == 16

    def test_welch_matches_exact_total_power(self, rng):
        x = rng.normal(0, 0.5, size=8192)
        _, pw = welch_spectrum(x, nperseg=512)
        assert np.mean(pw) == pytest.approx(np.mean(x**2), rel=0.1)

    def test_too_short_signal(self):
        with pytest.raises(AnalysisError):
            exact_period_spectrum(np.array([1.0]))

    def test_power_db_floor(self):
        db = power_db(np.array([0.0, 1.0]))
        assert db[0] == -120.0
        assert db[1] == 0.0

    def test_band_power_empty_band(self):
        f = np.linspace(0, 0.5, 10)
        with pytest.raises(AnalysisError):
            band_power(f, np.ones(10), 0.61, 0.62)


class TestGeneratorSpectra:
    """The Figure 4 shapes, asserted quantitatively."""

    @staticmethod
    def _lo_over_mid(gen):
        f, p = generator_spectrum(gen)
        return band_power(f, p, 0.0005, 0.01) / band_power(f, p, 0.2, 0.3)

    def test_type1_has_deep_low_frequency_rolloff(self):
        assert self._lo_over_mid(Type1Lfsr(12)) < 0.01

    def test_type2_rolloff_between_type1_and_flat(self):
        t1 = self._lo_over_mid(Type1Lfsr(12))
        t2 = self._lo_over_mid(Type2Lfsr(12))
        assert t1 * 3 < t2 < 0.5

    def test_decorrelated_is_flat(self):
        assert 0.5 < self._lo_over_mid(DecorrelatedLfsr(12)) < 2.0

    def test_max_variance_is_flat(self):
        assert 0.5 < self._lo_over_mid(MaxVarianceLfsr(12)) < 2.0

    def test_ramp_concentrates_at_low_frequency(self):
        assert self._lo_over_mid(RampGenerator(12)) > 100.0

    def test_type1_insensitive_to_shift_direction(self):
        f1, p1 = generator_spectrum(Type1Lfsr(12, direction="msb_to_lsb"))
        f2, p2 = generator_spectrum(Type1Lfsr(12, direction="lsb_to_msb"))
        # Same power per band (the sequences are time reversals).
        for lo, hi in ((0.001, 0.05), (0.1, 0.2), (0.3, 0.5)):
            assert band_power(f1, p1, lo, hi) == pytest.approx(
                band_power(f2, p2, lo, hi), rel=0.05)

    def test_total_power_equals_variance(self):
        for gen, var in ((Type1Lfsr(12), 1 / 3), (MaxVarianceLfsr(12), 1.0)):
            f, p = generator_spectrum(gen)
            assert np.mean(p) == pytest.approx(var, rel=0.02)

    def test_welch_path(self):
        f, p = generator_spectrum(Type1Lfsr(12), n=4096, exact=False)
        assert len(f) == len(p)
        assert np.mean(p) == pytest.approx(1 / 3, rel=0.1)
