"""Rank statistics for checking the predictor against gate truth.

Numpy-only (no scipy dependency at import time): the Spearman
correlation with average-rank tie handling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["average_ranks", "spearman_rank_correlation"]


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    # Group boundaries of runs of equal values in sorted order.
    new_group = np.empty(len(sv), dtype=bool)
    new_group[:1] = True
    new_group[1:] = sv[1:] != sv[:-1]
    group = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], len(sv))
    # Average of 1-based positions start+1 .. end over each run.
    avg = 0.5 * (starts + ends + 1)
    ranks = np.empty(len(sv))
    ranks[order] = avg[group]
    return ranks


def spearman_rank_correlation(x: Sequence[float],
                              y: Sequence[float]) -> float:
    """Spearman's rho with average-rank tie handling.

    Pearson correlation of the two rank vectors; returns 0.0 when
    either input is constant (no ordering to correlate).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = average_ranks(x) - (x.size + 1) / 2.0
    ry = average_ranks(y) - (y.size + 1) / 2.0
    denom = float(np.sqrt(np.sum(rx * rx) * np.sum(ry * ry)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry) / denom)

