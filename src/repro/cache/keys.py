"""Stable content hashing for cache keys.

A cache key is the SHA-256 of a *canonical JSON* rendering of a key
payload: a plain dict of strings, numbers, booleans and nested
lists/dicts describing exactly what went into an artifact — design
fingerprint, generator configuration, vector count and the code version.
Two payloads hash equal iff they describe the same computation, so the
store never needs an invalidation protocol: changing any input (or
bumping :data:`CACHE_SCHEMA`) simply addresses different content.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

import numpy as np

from ..errors import CacheError

__all__ = [
    "CACHE_SCHEMA",
    "stable_hash",
    "code_version",
    "design_fingerprint",
    "generator_fingerprint",
    "netlist_fingerprint",
]

#: Bump whenever an artifact's on-disk encoding changes; every key
#: incorporates it, so stale entries are simply never addressed again
#: (and eventually age out of the LRU store).
CACHE_SCHEMA = 1


def _canonical(value: Any) -> Any:
    """Reduce a payload value to canonical JSON-compatible primitives."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # repr round-trips exactly; format floats explicitly so the
        # rendering never depends on json library internals.
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": [str(value.dtype), list(value.shape)],
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(value).tobytes()).hexdigest()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    raise CacheError(
        f"unhashable cache-key value of type {type(value).__name__}: "
        f"{value!r}")


def stable_hash(payload: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical rendering of ``payload``."""
    doc = json.dumps(_canonical(payload), sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def code_version() -> str:
    """The code-version component every key embeds."""
    from .. import __version__

    return f"{__version__}+schema{CACHE_SCHEMA}"


def design_fingerprint(design) -> Dict[str, Any]:
    """Content fingerprint of a :class:`~repro.rtl.build.FilterDesign`.

    Captures everything that determines the datapath: the realized
    coefficient words, formats, and the operator/register structure.
    """
    return {
        "name": design.name,
        "kind": design.kind,
        "coefficients": np.asarray(design.coefficients, dtype=np.float64),
        "input_fmt": [design.input_fmt.width, design.input_fmt.frac],
        "acc_frac": design.acc_frac,
        "operators": design.adder_count,
        "registers": design.register_count,
        "nodes": len(design.graph.nodes),
    }


def netlist_fingerprint(nl) -> Dict[str, Any]:
    """Content fingerprint of a :class:`~repro.gates.netlist.GateNetlist`.

    Hashes the complete evaluable structure — gate kinds and
    connectivity, flip-flops, element order, and the input/output net
    lists — so two netlists fingerprint equal iff they simulate
    identically.  Net names and cell-site maps are excluded: they label
    faults but never change a waveform.  Gate kinds are the netlist's
    ``GATE_KINDS`` codes (xor 0, and 1, or 2, not 3, buf 4), and
    ``gate_ins`` lists each gate's operands followed by -1.
    """
    n = nl.gate_count
    ins = np.stack([nl.in0, nl.in1, np.full(n, -1, dtype=np.int64)], axis=1)
    keep = np.ones((n, 3), dtype=bool)
    keep[:, 1] = nl.in1 >= 0
    return {
        "nets": int(nl.net_count),
        "gate_kind": np.asarray(nl.kind, dtype=np.int8),
        "gate_out": np.asarray(nl.out, dtype=np.int64),
        "gate_ins": ins[keep].astype(np.int64),
        "dff": np.stack([nl.dff_d, nl.dff_q], axis=1).astype(np.int64),
        "elements": np.stack([nl.elem_kind, nl.elem_index],
                             axis=1).astype(np.int64),
        "input_bits": np.asarray(nl.input_bits, dtype=np.int64),
        "output_bits": np.asarray(nl.output_bits, dtype=np.int64),
    }


def generator_fingerprint(gen) -> Dict[str, Any]:
    """Content fingerprint of a test generator.

    Generators are deterministic given their constructor arguments, and
    every session starts from ``reset()``; class identity plus the
    public scalar attributes (width, polynomial, seed, switch point ...)
    therefore pins the whole output sequence.
    """
    attrs = {
        k: v for k, v in sorted(vars(gen).items())
        if not k.startswith("_")
        and isinstance(v, (bool, int, float, str, np.integer, np.floating))
    }
    return {
        "class": f"{type(gen).__module__}.{type(gen).__qualname__}",
        "name": gen.name,
        "width": gen.width,
        "attrs": attrs,
    }
