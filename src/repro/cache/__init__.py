"""Content-addressed artifact cache for the fault-simulation pipeline.

The paper's experiment grids recompute the same artifacts on every
invocation.  This package gives the ones that load faster than they
build — reference designs, full coverage runs and compiled gate
programs — a durable home: an on-disk npz store addressed by a stable
hash of *everything that determines the artifact's content* (design
fingerprint, generator configuration, vector count, code version), with
atomic writes, LRU size-cap eviction and telemetry-visible hit/miss
counters.  Fault universes, gate netlists and golden waves are rebuilt
in each process instead.

Typical use::

    from repro.cache import ArtifactCache
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext(cache=ArtifactCache("~/.cache/repro"))
    ctx.coverage("LP", gen, 4096)   # second process-run: pure cache hits

or from the CLI: ``python -m repro sweep --cache-dir PATH`` /
``--no-cache``.  Keys change with :data:`~repro.cache.keys.CACHE_SCHEMA`
and the package version, so upgrades never read stale encodings.
"""

from .backends import HttpStore, LocalStore, StoreBackend, safe_component
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
from .server import ArtifactServer
from .store import ArtifactCache, CacheStats, default_cache_dir

__all__ = [
    "ArtifactCache",
    "ArtifactServer",
    "CACHE_SCHEMA",
    "CacheStats",
    "cached_coverage",
    "cached_design",
    "cached_gate_program",
    "code_version",
    "default_cache_dir",
    "design_fingerprint",
    "generator_fingerprint",
    "HttpStore",
    "LocalStore",
    "netlist_fingerprint",
    "safe_component",
    "stable_hash",
    "StoreBackend",
]
