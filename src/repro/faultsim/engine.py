"""Fast cell-level fault-coverage engine.

Combines the fault dictionary (which patterns detect each fault) with the
pattern tracker (when each pattern first occurs at each cell) to produce
*exact per-vector* detection times for the whole ~50k-fault universe of a
Table 1 design in a couple of seconds — the workhorse behind the paper's
fault-simulation curves (Figures 10-13) and missed-fault tables
(Tables 4-6).

Detection model: a fault is detected at the first vector whose cell input
pattern is in the fault's detecting set, assuming the resulting output
error reaches the response analyzer (the paper assumes an alias-free
compactor and reports "very good observability"; the gate-level engine in
:mod:`repro.gates.faults` provides the exact-propagation ground truth the
model is validated against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..generators.base import TestGenerator, match_width
from ..rtl.build import FilterDesign
from ..telemetry import get_telemetry
from .dictionary import (DesignFault, FaultUniverse, build_fault_universe,
                         fault_class_table)
from .patterns import UNSEEN, PatternTracker, track_patterns

__all__ = ["CoverageResult", "run_fault_coverage", "coverage_of_tracker",
           "coverage_from_detect_times"]

#: Detection-latency histogram buckets, in vectors (powers of two).
LATENCY_EDGES = tuple(float(1 << k) for k in range(0, 17, 2))


@dataclass
class CoverageResult:
    """Outcome of one fault-coverage session."""

    design_name: str
    generator_name: str
    universe: FaultUniverse
    detect_time: np.ndarray  # per fault; UNSEEN when never detected
    n_vectors: int

    # ------------------------------------------------------------------
    # Scalar summaries
    # ------------------------------------------------------------------
    def detected(self, at: Optional[int] = None) -> int:
        """Faults detected within the first ``at`` vectors (default: all)."""
        limit = self.n_vectors if at is None else at
        return int(np.sum(self.detect_time < limit))

    def missed(self, at: Optional[int] = None) -> int:
        """Faults still undetected after ``at`` vectors."""
        return self.universe.fault_count - self.detected(at)

    def coverage(self, at: Optional[int] = None) -> float:
        """Fault coverage in [0, 1]."""
        return self.detected(at) / max(1, self.universe.fault_count)

    def missed_faults(self, at: Optional[int] = None) -> List[DesignFault]:
        """The undetected fault objects (for localization reports)."""
        limit = self.n_vectors if at is None else at
        idx = np.nonzero(self.detect_time >= limit)[0]
        return [self.universe.faults[i] for i in idx]

    # ------------------------------------------------------------------
    # Curves
    # ------------------------------------------------------------------
    def curve(self, points: Optional[Sequence[int]] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Undetected-fault count vs. vectors applied.

        Returns ``(vectors, undetected)``; default sample points are
        logarithmically spaced (fault-sim curves are read on log x).
        """
        if points is None:
            points = np.unique(np.concatenate([
                np.arange(1, min(65, self.n_vectors + 1)),
                np.geomspace(64, self.n_vectors, 96).astype(np.int64),
            ]))
        pts = np.asarray(list(points), dtype=np.int64)
        times = np.sort(self.detect_time[self.detect_time != UNSEEN])
        # detect_time t means "detected by the (t+1)-th vector", so after
        # `pts` vectors everything with time < pts is in.
        detected_at = np.searchsorted(times, pts, side="left")
        undetected = self.universe.fault_count - detected_at
        return pts, undetected

    def coverage_percent_curve(self, points: Optional[Sequence[int]] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
        pts, undetected = self.curve(points)
        n = max(1, self.universe.fault_count)
        return pts, 100.0 * (n - undetected) / n


def coverage_of_tracker(
    tracker: PatternTracker,
    design_name: str = "",
    generator_name: str = "",
) -> CoverageResult:
    """Fold a pattern tracker into per-fault detection times."""
    universe = tracker.universe
    first = tracker.first_seen  # (cells, 8)
    detect = np.full(universe.fault_count, UNSEEN, dtype=np.int64)
    masks = universe.fault_mask
    cells = universe.fault_cell
    for p in range(8):
        has_p = (masks & (1 << p)) != 0
        if not np.any(has_p):
            continue
        t = first[cells[has_p], p]
        np.minimum(detect[has_p], t, out=t)
        detect[has_p] = t
    return CoverageResult(
        design_name=design_name or universe.design_name,
        generator_name=generator_name,
        universe=universe,
        detect_time=detect,
        n_vectors=tracker.vectors_seen,
    )


def coverage_from_detect_times(
    universe: FaultUniverse,
    detect_time: np.ndarray,
    n_vectors: int,
    design_name: str = "",
    generator_name: str = "",
) -> CoverageResult:
    """Rehydrate a session from its per-fault detection times.

    Used by the parallel sweep (workers ship bare arrays) and the
    artifact cache (results are stored as arrays); validates the array
    against the universe so a mismatched pairing fails loudly.
    """
    detect = np.asarray(detect_time, dtype=np.int64)
    if detect.ndim != 1 or len(detect) != universe.fault_count:
        raise SimulationError(
            f"detect_time has shape {detect.shape} but universe "
            f"{universe.design_name!r} holds {universe.fault_count} faults")
    if n_vectors <= 0:
        raise SimulationError("n_vectors must be positive")
    return CoverageResult(
        design_name=design_name or universe.design_name,
        generator_name=generator_name,
        universe=universe,
        detect_time=detect,
        n_vectors=int(n_vectors),
    )


def _record_detection_latencies(tel, result: CoverageResult) -> None:
    """Per-fault-class detection-latency histograms (telemetry on only).

    One histogram per class name: classes of different cell variants
    that share a representative name share a histogram.
    """
    detect = result.detect_time
    names, name_of_class = np.unique(
        [cf.name for cf in fault_class_table().faults], return_inverse=True)
    fault_name = name_of_class[result.universe.fault_class]
    for k in np.unique(fault_name):
        times = detect[(fault_name == k) & (detect != UNSEEN)]
        if times.size:
            tel.histogram(f"faultsim.detect_latency.{names[k]}",
                          edges=LATENCY_EDGES).observe_many(times + 1)


def run_fault_coverage(
    design: FilterDesign,
    generator: TestGenerator,
    n_vectors: int,
    universe: Optional[FaultUniverse] = None,
    zone_tracer=None,
) -> CoverageResult:
    """One complete BIST session: generator -> filter -> coverage.

    The generator is reset, ``n_vectors`` words are produced (width-matched
    to the filter input), and the full fault universe is graded.

    ``zone_tracer`` optionally attaches a
    :class:`repro.telemetry.ZoneTracer` whose hook observes every
    operator's session operands alongside the pattern tracker.
    """
    if n_vectors <= 0:
        raise SimulationError("n_vectors must be positive")
    tel = get_telemetry()
    with tel.span("faultsim.run", design=design.name,
                  generator=generator.name, vectors=n_vectors) as sp:
        # Coarse stage progress: the cell-level session is a handful of
        # vectorized passes, so the stream ticks per stage rather than
        # per vector (the chunked gate-level engines tick per batch).
        stages = 4.0
        if tel.enabled:
            tel.progress("faultsim.session", 0, stages, stage="start")
        if universe is None:
            universe = build_fault_universe(design.graph, name=design.name)
        if tel.enabled:
            tel.progress("faultsim.session", 1, stages, stage="universe")
        with tel.span("faultsim.generate"):
            raw = generator.sequence(n_vectors)
            raw = match_width(raw, generator.width, design.input_fmt.width)
        if tel.enabled:
            tel.progress("faultsim.session", 2, stages, stage="generate")
        with tel.span("faultsim.track"):
            tracker = track_patterns(
                design.graph, universe, raw,
                extra_hook=None if zone_tracer is None else zone_tracer.hook)
        if tel.enabled:
            tel.progress("faultsim.session", 3, stages, stage="track")
        with tel.span("faultsim.classify"):
            result = coverage_of_tracker(tracker, design_name=design.name,
                                         generator_name=generator.name)
        if tel.enabled:
            tel.progress("faultsim.session", stages, stages,
                         stage="classified",
                         coverage=float(result.coverage()))
    if tel.enabled:
        tel.counter("faultsim.sessions").add(1)
        tel.counter("faultsim.vectors").add(n_vectors)
        tel.counter("faultsim.faults_graded").add(universe.fault_count)
        if sp.duration > 0:
            tel.gauge("faultsim.vectors_per_sec").set(n_vectors / sp.duration)
        _record_detection_latencies(tel, result)
    return result
