"""Shared experiment parameters and the memoizing experiment context.

All tables and figures draw from the same few coverage runs; the
:class:`ExperimentContext` memoizes designs, fault universes, gate
netlists and coverage sessions so a full benchmark sweep builds each
once per process.  Give it an :class:`~repro.cache.ArtifactCache`
(whose default directory is ``$REPRO_CACHE_DIR``) and designs and
coverage sessions become cache-backed: a rerun in a fresh process loads
them from disk instead of recomputing them.  Universes and netlists are rebuilt in each
process, because that is as fast as loading them or faster.
:func:`repro.parallel.sweep.run_sweep` fans design x generator grids
out across worker processes and adopts the results into the same memo.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..faultsim.dictionary import FaultUniverse, build_fault_universe
from ..faultsim.engine import CoverageResult, run_fault_coverage
from ..filters.reference import (
    bandpass_design,
    highpass_design,
    lowpass_design,
)
from ..generators.base import TestGenerator
from ..generators.mixed import MixedModeLfsr
from ..generators.ramp import RampGenerator
from ..generators.variants import (
    DecorrelatedLfsr,
    MaxVarianceLfsr,
    Type1Lfsr,
    Type2Lfsr,
)
from ..rtl.build import FilterDesign
from ..telemetry import get_telemetry

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
    """Memoizes designs, universes and coverage sessions across experiments.

    Parameters
    ----------
    config:
        Experiment knobs; defaults to :meth:`ExperimentConfig.from_env`.
    cache:
        Optional :class:`~repro.cache.ArtifactCache`.  When present,
        designs and coverage sessions are also persisted
        content-addressed on disk and reloaded on later runs (in this
        or any process).
    """

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 cache=None):
        self.config = config or ExperimentConfig.from_env()
        self.cache = cache
        self._designs: Optional[Dict[str, FilterDesign]] = None
        self._universes: Dict[str, FaultUniverse] = {}
        self._netlists: Dict[str, object] = {}
        self._coverage: Dict[Tuple[str, str, int], CoverageResult] = {}
        #: The one prepared exact-grading problem, and the lock a
        #: service holds while it grades a shard of it; both belong to
        #: :func:`repro.cluster.shards.prepared_problem`.
        self.grading_memo = None
        self.grading_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Designs and fault universes
    # ------------------------------------------------------------------
    def _build_design(self, name: str) -> FilterDesign:
        from ..cache import cached_design

        with get_telemetry().span("rtl.design", design=name):
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
            self._universes[name] = build_fault_universe(
                self.designs[name].graph, name=name)
        return self._universes[name]

    def netlist(self, name: str):
        """The design's elaborated gate netlist."""
        if name not in self._netlists:
            from ..gates.netlist import elaborate

            self._netlists[name] = elaborate(self.designs[name].graph)
        return self._netlists[name]

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
                self.cache, design, generator, n_vectors, universe,
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
