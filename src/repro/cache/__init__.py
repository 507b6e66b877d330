"""Content-addressed artifact cache for the fault-simulation pipeline.

The paper's experiment grids recompute the same artifacts on every
invocation.  This package gives the ones that load faster than they
build — reference designs, full coverage runs and compiled gate
programs — a durable home: one local directory of npz entries addressed
by a stable hash of *everything that determines the artifact's content*
(design fingerprint, generator configuration, vector count, code
version), with atomic writes, LRU size-cap eviction and
telemetry-visible hit/miss counters.  Fault universes, gate netlists
and golden waves are rebuilt in each process instead, and each
``repro serve`` worker of a fleet keeps its own directory.

Typical use::

    from repro.cache import ArtifactCache
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext(cache=ArtifactCache(".repro-cache"))
    ctx.coverage("LP", gen, 4096)   # second process-run: pure cache hits

or from the CLI: ``python -m repro sweep --cache-dir PATH`` /
``--no-cache``.  Keys change with :data:`~repro.cache.keys.CACHE_SCHEMA`
and the package version, so upgrades never read stale encodings.
"""

from .keys import (
    CACHE_SCHEMA,
    code_version,
    design_fingerprint,
    generator_fingerprint,
    netlist_fingerprint,
    stable_hash,
)
from .pipeline import (
    cached_coverage,
    cached_design,
    cached_gate_program,
)
from .store import (
    ArtifactCache,
    CacheStats,
    default_cache_dir,
    safe_component,
)

__all__ = [
    "ArtifactCache",
    "CACHE_SCHEMA",
    "CacheStats",
    "cached_coverage",
    "cached_design",
    "cached_gate_program",
    "code_version",
    "default_cache_dir",
    "design_fingerprint",
    "generator_fingerprint",
    "netlist_fingerprint",
    "safe_component",
    "stable_hash",
]
