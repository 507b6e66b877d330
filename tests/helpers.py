"""Shared test helpers (importable from any test module)."""

from __future__ import annotations

import numpy as np

from repro.gates import DEFAULT_CHUNK, fault_parallel_reference
from repro.gates.fault_parallel import _deepening_schedule
from repro.parallel.pool import pool_map, start_pool
from repro.rtl import design_from_coefficients
from repro.telemetry import get_telemetry, set_telemetry

#: A handful of coefficient sets exercising adds, subs, leading-negative
#: taps, zero taps and single-digit taps.
SMALL_COEFSETS = {
    "plain": [0.3, -0.45, 0.12, 0.08, -0.2],
    "leading_negative": [0.4, 0.3, -0.2],  # far-end tap negative
    "with_zero": [0.25, 0.0, -0.125, 0.5],
    "single_digit": [0.5, -0.25],
}


def build_small_design(key: str = "plain", **kwargs):
    """A compact design for exhaustive / gate-level tests."""
    defaults = dict(name=f"small-{key}", coef_frac=8, acc_frac=10,
                    max_nonzeros=4)
    defaults.update(kwargs)
    return design_from_coefficients(SMALL_COEFSETS[key], **defaults)


def forked_map(fn, items, jobs, label="test.map"):
    """``fn`` over ``items`` through :func:`repro.parallel.pool.pool_map`
    in a fork pool of ``jobs`` workers, under a ``label`` span.  The
    workers drop the inherited collector, and a task the pool cannot
    run is computed here by ``fn`` itself."""
    with get_telemetry().span(label):
        pool = start_pool(min(jobs, len(items)), "fork", set_telemetry,
                          (None,))
        try:
            return list(pool_map(pool, fn, [(x,) for x in items], fn))
        finally:
            if pool is not None:
                pool.shutdown()


def reference_first_divergence(nl, raw, faults):
    """Each enumerated fault's first divergent vector from the reference
    oracle (``-1`` when its outputs never differ from golden)."""
    return np.concatenate([
        fault_parallel_reference(
            nl, raw, [f.netlist_fault for f in faults[i:i + 64]])
        for i in range(0, len(faults), 64)])


def chunk_end_times(first, length, chunk=None):
    """Map first divergent vectors onto the exact grader's time axis.

    A fault first diverging at vector ``t`` is caught in the first
    deepening stage ``s`` with ``t < s``; that stage grades in chunks of
    ``c = min(chunk, s)`` and stamps the end of the chunk holding ``t``,
    capped at the stage length.
    """
    chunk = min(DEFAULT_CHUNK if chunk is None else chunk, max(length, 1))
    stages = _deepening_schedule(length, chunk)
    out = np.full(len(first), -1, dtype=np.int64)
    for i, t in enumerate(first):
        if t >= 0:
            s = next(s for s in stages if t < s)
            c = min(chunk, s)
            out[i] = min((t // c + 1) * c, s)
    return out
