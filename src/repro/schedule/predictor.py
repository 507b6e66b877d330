"""Per-fault detection-probability prediction from the analytic model.

The Section 7.2 analysis already predicts, per arithmetic operator, the
probability that each ripple-carry cell receives each of the eight
input patterns per vector
(:func:`repro.analysis.testlength.operator_pattern_probabilities`).  A
collapsed fault class is detected by a fixed subset of those patterns
(:attr:`repro.gates.cells.CellFault.detect_mask`), so its predicted
per-vector detection probability is just the summed probability of its
detecting codes — and its predicted pseudorandom test length is
``1/p``.  :class:`FaultPredictor` evaluates that for whole fault
universes, caching the expensive per-operator tables so scoring 65k
faults costs a couple of hundred operator distributions plus a
dictionary walk.

Generators map onto white-noise-through-FIR source models exactly as in
:mod:`repro.analysis.linear_model`; the mixed generator is modeled as
the time-average of its two phases (each phase contributes half the
session's vectors, so the average per-vector hit probability is the
weighted mean of the per-phase probabilities).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.linear_model import (
    SourceModel,
    decorrelated_lfsr_model,
    max_variance_lfsr_model,
    type1_lfsr_model,
    type2_lfsr_model,
    uniform_white_model,
)
from ..analysis.testlength import operator_pattern_probabilities
from ..resolve import resolve_generator
from ..rtl.build import FilterDesign

__all__ = ["FaultPredictor", "source_models_for"]

#: Amplitude-grid resolution for the pattern-probability tables; 1024
#: bins is where the predicted-vs-actual rank correlation saturates on
#: the Table 1 designs (see ``docs/predictor.md``).
DEFAULT_BINS = 1024


def source_models_for(generator: str, width: int
                      ) -> List[Tuple[SourceModel, float]]:
    """Weighted linear source models for any accepted generator spelling.

    Returns ``[(model, weight), ...]`` with weights summing to 1.  Most
    generators are a single model; ``mixed`` is the half/half average of
    its Type 1 and maximum-variance phases.  The ramp's *amplitude
    distribution* is exactly uniform over a period, so it shares the
    uniform-white model (its pathological spectrum shows up in Eq. 1
    compatibility, not in the marginal distribution this predictor
    consumes).
    """
    kind = resolve_generator(generator)
    if kind == "lfsr1":
        return [(type1_lfsr_model(width), 1.0)]
    if kind == "lfsr2":
        from ..generators.variants import Type2Lfsr

        gen = Type2Lfsr(width)
        return [(type2_lfsr_model(width, gen.poly), 1.0)]
    if kind == "lfsrd":
        return [(decorrelated_lfsr_model(width), 1.0)]
    if kind == "lfsrm":
        return [(max_variance_lfsr_model(width), 1.0)]
    if kind == "mixed":
        return [(type1_lfsr_model(width), 0.5),
                (max_variance_lfsr_model(width), 0.5)]
    # ramp and white: uniform word-value marginal
    return [(uniform_white_model(width), 1.0)]


def _fault_mask(fault) -> int:
    """Detecting-code bitmask of an enumerated or dictionary fault."""
    mask = getattr(fault, "effective_mask", None)
    if mask is None:
        mask = fault.cell_fault.detect_mask
    return int(mask)


class FaultPredictor:
    """Analytic per-fault detection-probability scores for one
    generator × design pair.

    Score extraction is two-level cached: one ``(W, 8)`` pattern table
    per arithmetic operator (the expensive distribution work) and one
    summed probability per distinct ``(node, bit, mask)`` triple (the
    hot path over a universe's many same-mask faults).  Accepts both
    :class:`~repro.gates.faults.EnumeratedFault` (gate-level) and
    :class:`~repro.faultsim.dictionary.DesignFault` (behavioral) fault
    objects.
    """

    def __init__(self, design: FilterDesign, generator: str, *,
                 bins: int = DEFAULT_BINS):
        self.design = design
        self.generator = resolve_generator(generator)
        self.bins = int(bins)
        self.models = source_models_for(generator, design.input_fmt.width)
        self._tables: Dict[int, np.ndarray] = {}
        self._memo: Dict[Tuple[int, int, int], float] = {}

    def node_table(self, node_id: int) -> np.ndarray:
        """Weighted-average per-cell pattern probabilities, shape (W, 8)."""
        table = self._tables.get(node_id)
        if table is None:
            parts = [
                weight * operator_pattern_probabilities(
                    self.design, node_id, model, bins=self.bins)
                for model, weight in self.models
            ]
            table = parts[0]
            for part in parts[1:]:
                table = table + part
            self._tables[node_id] = table
        return table

    def detection_probability(self, faults: Sequence) -> np.ndarray:
        """Predicted per-vector detection probability, aligned with
        ``faults``."""
        out = np.empty(len(faults))
        memo = self._memo
        for i, fault in enumerate(faults):
            key = (fault.node_id, fault.bit, _fault_mask(fault))
            p = memo.get(key)
            if p is None:
                probs = self.node_table(fault.node_id)[fault.bit]
                mask = key[2]
                # Clip float summation dust: eight summed bin-integrals
                # can land at 1 + O(eps).
                p = min(1.0, max(0.0, float(sum(
                    probs[n] for n in range(8) if mask & (1 << n)))))
                memo[key] = p
            out[i] = p
        return out

    def expected_times(self, faults: Sequence) -> np.ndarray:
        """Predicted pseudorandom test length ``1/p`` per fault
        (``inf`` where the detecting patterns have zero predicted
        probability)."""
        p = self.detection_probability(faults)
        out = np.full(len(p), np.inf)
        hit = p > 0
        out[hit] = 1.0 / p[hit]
        return out
