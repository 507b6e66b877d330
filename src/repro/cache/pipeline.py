"""Get-or-compute helpers tying the store to the fault-sim pipeline.

Each helper hashes the inputs that pin an artifact's content (design
fingerprint, generator configuration, vector count — code version is
folded in by the store), consults the cache, and falls back to the
supplied compute callable on a miss, storing the fresh result.  Every
helper accepts ``cache=None`` and degrades to a plain call, so call
sites need no conditional plumbing.

Only artifacts that load faster than they build have a helper: designs,
coverage sessions and compiled gate programs.  Fault universes, gate
netlists and golden waves are rebuilt in each process, because building
them is as cheap as loading them or cheaper (``docs/performance.md``,
"What the cache keeps").
"""

from __future__ import annotations

from typing import Callable, Optional

from . import artifacts
from .keys import (
    design_fingerprint,
    generator_fingerprint,
    netlist_fingerprint,
)
from .store import ArtifactCache

__all__ = [
    "cached_design", "cached_coverage",
    "cached_gate_program",
]


def cached_design(cache: Optional[ArtifactCache], ref: str,
                  compute: Callable):
    """A named deterministic design (reference designs are keyed by name)."""
    if cache is None:
        return compute()
    payload = {"ref": ref}
    entry = cache.load("design", payload)
    if entry is not None:
        return artifacts.decode_design(entry, entry["__meta__"])
    design = compute()
    arrays, meta = artifacts.encode_design(design)
    cache.store("design", payload, arrays, meta)
    return design


def cached_gate_program(cache: Optional[ArtifactCache], nl,
                        compute: Callable):
    """The netlist's compiled levelized program, keyed on netlist content.

    The exact gate-level engine compiles once per process anyway
    (:func:`repro.gates.compiled.compiled_program` memoizes on the
    netlist object); the store makes the program survive across worker
    processes and CLI invocations.
    """
    if cache is None:
        return compute()
    payload = {"netlist": netlist_fingerprint(nl)}
    entry = cache.load("gateprog", payload)
    if entry is not None:
        return artifacts.decode_program(entry, entry["__meta__"])
    program = compute()
    arrays, meta = artifacts.encode_program(program)
    cache.store("gateprog", payload, arrays, meta)
    return program


def cached_coverage(cache: Optional[ArtifactCache], design, generator,
                    n_vectors: int, universe, compute: Callable):
    if cache is None:
        return compute()
    payload = {
        "design": design_fingerprint(design),
        "generator": generator_fingerprint(generator),
        "n_vectors": int(n_vectors),
    }
    entry = cache.load("coverage", payload)
    if entry is not None:
        return artifacts.decode_coverage(entry, entry["__meta__"], universe)
    result = compute()
    arrays, meta = artifacts.encode_coverage(result)
    cache.store("coverage", payload, arrays, meta)
    return result
