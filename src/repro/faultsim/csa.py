"""Fault universe and coverage grading for carry-save chains.

The 3:2 compressor cells of :class:`~repro.rtl.carrysave.CarrySaveFir`
are full adders, so the same collapsed fault dictionary applies; this
module wires the carry-save simulator's per-rank cell input words into
the standard pattern tracker and coverage engine, enabling the
ripple-vs-carry-save testability ablation the paper's Section 3 alludes
to ("the analysis is more complex in the case of carry-save arrays").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SimulationError
from ..gates.cells import CellVariant, cell_variant
from ..generators.base import TestGenerator, match_width
from ..rtl.carrysave import CarrySaveFir
from .dictionary import FaultUniverse, build_universe_from_cells
from .engine import CoverageResult, coverage_of_tracker
from .patterns import PatternTracker

__all__ = ["build_csa_universe", "run_csa_fault_coverage"]


def _csa_cell_specs(csa: CarrySaveFir):
    """Cell descriptions for every compressor rank plus the merge adder.

    Compressor cells have three live inputs, so even bit 0 is a ``full``
    cell; only the top cell drops its carry (``msb``).  The vector-merge
    ripple adder is a standard adder (``lsb0`` / ``full`` / ``msb``).
    """
    width = csa.fmt.width
    specs: List[Tuple[int, int, CellVariant, int]] = []
    for stage in csa.stages:
        for bit in range(width):
            kind = "msb" if bit == width - 1 else "full"
            variant = cell_variant(kind)
            specs.append((stage.stage_id, bit, variant, variant.feasible_mask))
    for bit in range(width):
        if bit == 0:
            kind = "lsb0"
        elif bit == width - 1:
            kind = "msb"
        else:
            kind = "full"
        variant = cell_variant(kind)
        specs.append((csa.MERGE_ID, bit, variant, variant.feasible_mask))
    return specs


def build_csa_universe(csa: CarrySaveFir) -> FaultUniverse:
    """The collapsed stuck-at universe of a carry-save chain."""
    return build_universe_from_cells(_csa_cell_specs(csa), name=csa.name)


def run_csa_fault_coverage(
    csa: CarrySaveFir,
    generator: TestGenerator,
    n_vectors: int,
    universe: Optional[FaultUniverse] = None,
) -> CoverageResult:
    """One BIST session against the carry-save realization."""
    if n_vectors <= 0:
        raise SimulationError("n_vectors must be positive")
    if universe is None:
        universe = build_csa_universe(csa)
    raw = generator.sequence(n_vectors)
    raw = match_width(raw, generator.width, csa.input_fmt.width)
    tracker = PatternTracker(universe)
    csa.simulate(raw, observer=tracker.observe_words)
    tracker.advance(n_vectors)
    return coverage_of_tracker(tracker, design_name=csa.name,
                               generator_name=generator.name)
