"""Shared experiment parameters and the memoizing experiment context.

All tables and figures draw from the same few coverage runs; the
:class:`ExperimentContext` caches designs, fault universes and coverage
sessions so a full benchmark sweep builds each once.  Give it an
:class:`~repro.cache.ArtifactCache` (or set ``$REPRO_CACHE_DIR``) and
the memo tables become cache-backed: a rerun in a fresh process loads
universes, netlists, golden waveforms and coverage arrays from disk
instead of recomputing them.  :func:`repro.parallel.sweep.run_sweep`
fans design x generator grids out across worker processes and adopts
the results into the same memo.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..faultsim.dictionary import FaultUniverse, build_fault_universe
from ..faultsim.engine import CoverageResult, run_fault_coverage
from ..filters.reference import (
    bandpass_design,
    highpass_design,
    lowpass_design,
)
from ..generators.base import TestGenerator, match_width
from ..generators.mixed import MixedModeLfsr
from ..generators.ramp import RampGenerator
from ..generators.variants import (
    DecorrelatedLfsr,
    MaxVarianceLfsr,
    Type1Lfsr,
    Type2Lfsr,
)
from ..rtl.build import FilterDesign

__all__ = ["ExperimentConfig", "ExperimentContext", "DEFAULT_CONFIG"]

_DESIGN_BUILDERS = {
    "LP": lowpass_design,
    "BP": bandpass_design,
    "HP": highpass_design,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the reproduction experiments.

    Defaults follow the paper: 12-bit generators, 4k-vector sessions for
    Tables 4-5 and Figures 10-12, an 8k mixed session (switch at 4k) for
    Table 6, and a 2k switch point for Figure 13.  Set the environment
    variable ``REPRO_FAST=1`` to quarter the vector counts during smoke
    runs.
    """

    generator_width: int = 12
    table4_vectors: int = 4096
    table6_vectors: int = 8192
    table6_switch: int = 4096
    fig13_switch: int = 2048
    analysis_tap: int = 20  # the paper's running example

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        if os.environ.get("REPRO_FAST"):
            return cls(table4_vectors=1024, table6_vectors=2048,
                       table6_switch=1024, fig13_switch=512)
        return cls()


DEFAULT_CONFIG = ExperimentConfig()


class ExperimentContext:
    """Caches designs, universes and coverage sessions across experiments.

    Parameters
    ----------
    config:
        Experiment knobs; defaults to :meth:`ExperimentConfig.from_env`.
    cache:
        Optional :class:`~repro.cache.ArtifactCache`.  When present,
        every memoized artifact is also persisted content-addressed on
        disk and reloaded on later runs (in this or any process).
    coverage_cache:
        When ``False``, coverage sessions are always recomputed even
        with a cache attached (designs/universes/netlists stay
        cache-backed) — the knob ``repro bench`` uses so timed sessions
        measure real grading work.
    """

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 cache=None, coverage_cache: bool = True):
        self.config = config or ExperimentConfig.from_env()
        self.cache = cache
        self.coverage_cache = coverage_cache
        self._designs: Optional[Dict[str, FilterDesign]] = None
        self._universes: Dict[str, FaultUniverse] = {}
        self._netlists: Dict[str, object] = {}
        self._coverage: Dict[Tuple[str, str, int], CoverageResult] = {}
        #: The one prepared exact-grading problem, and the lock a
        #: service holds while it grades a shard of it; both belong to
        #: :func:`repro.cluster.shards.prepared_problem`.
        self.grading_memo = None
        self.grading_lock = threading.Lock()

    @classmethod
    def from_env(cls, config: Optional[ExperimentConfig] = None
                 ) -> "ExperimentContext":
        """A context whose cache follows ``$REPRO_CACHE_DIR`` (if set)."""
        cache = None
        if os.environ.get("REPRO_CACHE_DIR"):
            from ..cache import ArtifactCache

            cache = ArtifactCache()
        return cls(config=config, cache=cache)

    # ------------------------------------------------------------------
    # Designs and fault universes
    # ------------------------------------------------------------------
    def _build_design(self, name: str) -> FilterDesign:
        from ..cache import cached_design

        design = cached_design(self.cache, name, _DESIGN_BUILDERS[name])
        # The JSON snapshot omits the filter spec the figures annotate
        # with; reattach it for cache-rehydrated designs.
        if "spec" not in design.extra:
            from ..filters.design import (
                BANDPASS_SPEC,
                HIGHPASS_SPEC,
                LOWPASS_SPEC,
            )

            spec = {"LP": LOWPASS_SPEC, "BP": BANDPASS_SPEC,
                    "HP": HIGHPASS_SPEC}[name]
            design.extra["spec"] = spec
            design.kind = spec.kind
        return design

    @property
    def designs(self) -> Dict[str, FilterDesign]:
        if self._designs is None:
            self._designs = {name: self._build_design(name)
                             for name in _DESIGN_BUILDERS}
        return self._designs

    def universe(self, name: str) -> FaultUniverse:
        if name not in self._universes:
            from ..cache import cached_universe

            design = self.designs[name]
            self._universes[name] = cached_universe(
                self.cache, design,
                lambda: build_fault_universe(design.graph, name=name))
        return self._universes[name]

    def netlist(self, name: str):
        """The design's elaborated gate netlist (cache-backed)."""
        if name not in self._netlists:
            from ..cache import cached_netlist
            from ..gates.netlist import elaborate

            design = self.designs[name]
            self._netlists[name] = cached_netlist(
                self.cache, design, lambda: elaborate(design.graph))
        return self._netlists[name]

    def golden(self, name: str, generator: TestGenerator,
               n_vectors: int) -> np.ndarray:
        """Fault-free gate-level output waveform (cache-backed)."""
        from ..cache import cached_golden

        design = self.designs[name]

        def compute() -> np.ndarray:
            from ..gates.gatesim import simulate_netlist

            raw = generator.sequence(n_vectors)
            raw = match_width(raw, generator.width, design.input_fmt.width)
            return simulate_netlist(self.netlist(name), raw)["output"]

        return cached_golden(self.cache, design, generator, n_vectors,
                             compute)

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    def standard_generators(self) -> Dict[str, TestGenerator]:
        """The four generators of Tables 4-5 / Figures 10-12."""
        w = self.config.generator_width
        return {
            "LFSR-1": Type1Lfsr(w),
            "LFSR-D": DecorrelatedLfsr(w),
            "LFSR-M": MaxVarianceLfsr(w),
            "Ramp": RampGenerator(w),
        }

    def spectrum_generators(self) -> Dict[str, TestGenerator]:
        """The five generators whose spectra Figure 4 plots."""
        w = self.config.generator_width
        gens = self.standard_generators()
        gens["LFSR-2"] = Type2Lfsr(w)
        return gens

    def mixed_generator(self, switch_after: Optional[int] = None) -> MixedModeLfsr:
        return MixedModeLfsr(self.config.generator_width,
                             switch_after=switch_after
                             if switch_after is not None
                             else self.config.table6_switch)

    # ------------------------------------------------------------------
    # Coverage runs (memoized, cache-backed)
    # ------------------------------------------------------------------
    def coverage(self, design_name: str, generator: TestGenerator,
                 n_vectors: int) -> CoverageResult:
        key = (design_name, generator.name, n_vectors)
        if key not in self._coverage:
            from ..cache import cached_coverage

            design = self.designs[design_name]
            universe = self.universe(design_name)
            self._coverage[key] = cached_coverage(
                self.cache if self.coverage_cache else None,
                design, generator, n_vectors, universe,
                lambda: run_fault_coverage(design, generator, n_vectors,
                                           universe=universe))
        return self._coverage[key]

    def reset_coverage(self) -> None:
        """Forget memoized coverage sessions (benchmarking aid)."""
        self._coverage.clear()

    def adopt_coverage(self, design_name: str, generator_name: str,
                       n_vectors: int, result: CoverageResult) -> None:
        """Install an externally graded session into the memo table."""
        self._coverage[(design_name, generator_name, n_vectors)] = result
