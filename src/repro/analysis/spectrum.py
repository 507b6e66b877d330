"""Power-spectrum estimation for test generators (Figure 4).

Two estimators:

* :func:`exact_period_spectrum` — for periodic generators (LFSRs over a
  full m-sequence period, ramps over a full count cycle) the discrete
  power spectrum of one period is exact.
* :func:`welch_spectrum` — averaged periodogram for arbitrary sources.

All spectra are one-sided over normalized frequency ``f in [0, 0.5]``
(cycles/sample) and scaled so that the mean of the power values equals
the signal's total power (Parseval), making generator-to-generator
comparisons meaningful.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import signal as sp_signal

from ..errors import AnalysisError
from ..generators.base import TestGenerator
from ..generators.ramp import RampGenerator

__all__ = [
    "exact_period_spectrum",
    "welch_spectrum",
    "generator_spectrum",
    "power_db",
    "band_power",
]


def power_db(power: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """10*log10 with a floor for zero bins."""
    p = np.asarray(power, dtype=np.float64)
    floor = 10.0 ** (floor_db / 10.0)
    return 10.0 * np.log10(np.maximum(p, floor))


def exact_period_spectrum(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum of exactly one period of a signal.

    Returns ``(freqs, power)`` where ``power[k]`` is the two-sided power
    density folded onto ``[0, 0.5]``; ``mean(power) ==`` total AC+DC
    power of the period (Parseval).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise AnalysisError("need at least two samples for a spectrum")
    line_power = np.abs(np.fft.rfft(x)) ** 2 / n**2  # two-sided per-line power
    freqs = np.fft.rfftfreq(n)
    # Fold two-sided power onto one side: interior lines appear twice.
    folded = line_power.copy()
    interior = slice(1, -1 if n % 2 == 0 else None)
    folded[interior] *= 2.0
    # sum(folded) is the total power (Parseval); scale so the *mean* over
    # the reported bins equals the total power.
    return freqs, folded * len(folded)


def welch_spectrum(
    samples: np.ndarray, nperseg: int = 1024
) -> Tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram spectrum; same normalization convention."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < nperseg:
        nperseg = len(x)
    freqs, psd = sp_signal.welch(x, fs=1.0, nperseg=nperseg, window="hann",
                                 detrend=False)
    # scipy returns a density whose integral over [0, 0.5] is total power;
    # rescale so the mean over bins equals total power (matching
    # exact_period_spectrum).
    power = psd.copy()
    if len(freqs) > 1:
        df = freqs[1] - freqs[0]
        total = np.sum(psd) * df
        mean_bins = np.mean(power)
        if mean_bins > 0:
            power = power * (total / mean_bins)
    return freqs, power


def generator_spectrum(
    gen: TestGenerator, n: int = 0, exact: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Spectrum of a generator's normalized output.

    With ``exact=True`` and ``n == 0``, LFSR-class generators use one full
    m-sequence period (``2**width - 1`` vectors) and ramps one full count
    cycle; otherwise ``n`` vectors feed the Welch estimator.
    """
    if exact and n == 0:
        if isinstance(gen, RampGenerator):
            period = 1 << gen.width  # one full counter cycle
        else:
            period = (1 << gen.width) - 1  # one m-sequence period
        samples = gen.sequence(period) / float(1 << (gen.width - 1))
        return exact_period_spectrum(samples)
    if n <= 0:
        n = 1 << 14
    samples = gen.sequence(n) / float(1 << (gen.width - 1))
    return welch_spectrum(samples)


def band_power(freqs: np.ndarray, power: np.ndarray, lo: float, hi: float) -> float:
    """Average power in the band ``[lo, hi]`` (normalized frequency)."""
    mask = (freqs >= lo) & (freqs <= hi)
    if not np.any(mask):
        raise AnalysisError(f"no spectral bins inside [{lo}, {hi}]")
    return float(np.mean(power[mask]))
