"""Generator recommendation: analytic ranking, gate-level confirmation.

"Which generator should test this filter?" is answered in two stages,
mirroring the paper's own workflow:

1. **Analytic** (cheap, no simulation): every candidate is scored by
   its predicted number of missed faults after an ``N``-vector session
   — per-fault detection probabilities from
   :class:`~repro.schedule.predictor.FaultPredictor` over the
   behavioral fault universe, survival ``(1-p)**N`` summed — plus the
   Eq. 1 frequency-domain compatibility ratio as the tie-breaker (it
   penalizes spectrally pathological sources, e.g. the ramp, whose
   amplitude *marginal* alone looks benign).
2. **Confirmation** (bounded gate-level grading): only the top-k
   analytic candidates are graded exactly, on a subsampled enumerated
   fault universe and a bounded vector count.  The best candidate is
   the confirmed-coverage winner, analytic order breaking ties.

Exposed as the service's ``recommend`` job kind and as
``repro recommend`` on the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..bist.selection import rank_generators
from ..generators.base import match_width
from ..resolve import make_generator, resolve_design, resolve_generator
from .predictor import FaultPredictor

__all__ = ["DEFAULT_CANDIDATES", "recommend_generator"]

#: The paper's generator menagerie plus its Section 9 mixed scheme.
DEFAULT_CANDIDATES = ("lfsr1", "lfsr2", "lfsrd", "lfsrm", "ramp", "mixed")


def _subsample(faults, limit: int):
    """Evenly spaced rows of a fault table (keeps every operator
    represented)."""
    if not limit or limit >= len(faults):
        return faults
    return faults[np.unique(np.linspace(0, len(faults) - 1,
                                        limit).astype(int))]


def recommend_generator(
    ctx,
    design_name: str,
    *,
    vectors: int = 4096,
    top_k: int = 2,
    confirm_vectors: int = 512,
    confirm_faults: int = 2048,
    bins: int = 512,
    candidates: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Recommend a test generator for a design; see the module doc.

    ``ctx`` is an :class:`~repro.experiments.ExperimentContext` (its
    design/universe/netlist memos and artifact cache are reused).
    Setting ``confirm_vectors`` or ``confirm_faults`` to 0 skips the
    gate-level stage and recommends from the analytic ranking alone.
    """
    name = resolve_design(design_name)
    kinds = [resolve_generator(c) for c in
             (candidates or DEFAULT_CANDIDATES)]
    design = ctx.designs[name]
    universe = ctx.universe(name)
    width = design.input_fmt.width

    gens = {kind: make_generator(kind, width, vectors) for kind in kinds}
    ratios = {r.generator.name: r for r in
              rank_generators(design, list(gens.values()))}

    scored = []
    for kind in kinds:
        predictor = FaultPredictor(design, kind, bins=bins)
        p = predictor.detection_probability(universe.faults)
        predicted_missed = float(np.sum((1.0 - p) ** vectors))
        ranking = ratios[gens[kind].name]
        scored.append({
            "generator": kind,
            "name": gens[kind].name,
            "predicted_missed": predicted_missed,
            "predicted_coverage":
                1.0 - predicted_missed / max(1, universe.fault_count),
            "compatibility_ratio": float(ranking.ratio),
            "rating": ranking.rating,
        })
    scored.sort(key=lambda s: (s["predicted_missed"],
                               -s["compatibility_ratio"]))
    for rank, entry in enumerate(scored, start=1):
        entry["analytic_rank"] = rank

    out: Dict[str, Any] = {
        "design": name,
        "vectors": int(vectors),
        "width": int(width),
        "fault_count": int(universe.fault_count),
        "candidates": scored,
        "confirm_vectors": int(confirm_vectors),
        "confirm_faults": int(confirm_faults),
        "confirmed": [],
    }

    if not (top_k and confirm_vectors and confirm_faults):
        out["best"] = scored[0]["generator"]
        return out

    from ..gates import enumerate_cell_faults, gate_level_missed

    nl = ctx.netlist(name)
    enumerated = _subsample(enumerate_cell_faults(design.graph, nl),
                            confirm_faults)
    confirmed = []
    for entry in scored[:top_k]:
        kind = entry["generator"]
        gen = make_generator(kind, width, confirm_vectors)
        raw = match_width(gen.sequence(confirm_vectors), gen.width, width)
        missed = gate_level_missed(nl, raw, enumerated, cache=ctx.cache)
        detected = len(enumerated) - len(missed)
        confirmed.append({
            "generator": kind,
            "vectors": int(confirm_vectors),
            "faults": len(enumerated),
            "detected": detected,
            "missed": len(missed),
            "coverage": detected / max(1, len(enumerated)),
            "analytic_rank": entry["analytic_rank"],
        })
    # Highest confirmed coverage wins; analytic order breaks ties.
    best = max(confirmed,
               key=lambda c: (c["coverage"], -c["analytic_rank"]))
    out["confirmed"] = confirmed
    out["best"] = best["generator"]
    return out
