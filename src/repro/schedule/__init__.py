"""Analytic fault-difficulty prediction and generator recommendation.

The paper's central asset is that test-zone occupancy — and therefore
which faults are hard — is *analytically predictable* before any fault
simulation runs: Eq. 1 (``sigma_y^2 = (1/L) sum |G[k]|^2 |H[k]|^2``)
places each operator's signal variance, and the Section 7.2 amplitude
distributions turn that into per-cell test-pattern probabilities.  This
package turns the prediction into answers:

* :mod:`repro.schedule.predictor` scores every enumerated fault with
  its predicted per-vector detection probability (reusing
  :mod:`repro.analysis`), cached per-operator;
* :mod:`repro.schedule.stats` provides the Spearman rank correlation
  that checks the prediction against gate-level detection times;
* :mod:`repro.schedule.recommend` answers "best generator for this
  filter" from the analytic model alone, running gate-level grading
  only to confirm the top-k candidates (the service's ``recommend``
  job kind).

Gate-level batches always run in cone-locality order
(:func:`repro.gates.faults.schedule_fault_batches`); the prediction
does not reorder them.  See ``docs/predictor.md``.
"""

from .predictor import FaultPredictor, source_models_for
from .recommend import recommend_generator
from .stats import average_ranks, spearman_rank_correlation

__all__ = [
    "FaultPredictor",
    "average_ranks",
    "recommend_generator",
    "source_models_for",
    "spearman_rank_correlation",
]
