"""Encoders/decoders between pipeline artifacts and npz-able arrays.

Three artifact kinds flow through the store:

``design``
    A :class:`~repro.rtl.build.FilterDesign` via the JSON document of
    :mod:`repro.rtl.serialize`.
``coverage``
    A :class:`~repro.faultsim.engine.CoverageResult`'s per-fault
    detection times; rehydration reattaches a universe.
``gateprog``
    A :class:`~repro.gates.compiled.CompiledNetlist`'s CSR op table.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..errors import CacheError
from ..faultsim.dictionary import FaultUniverse

__all__ = [
    "encode_coverage", "decode_coverage",
    "encode_design", "decode_design",
    "encode_program", "decode_program",
]

Arrays = Dict[str, Any]
Meta = Dict[str, Any]


# ----------------------------------------------------------------------
# Compiled netlist programs
# ----------------------------------------------------------------------
#: The npz key of each array field of a compiled program.
_PROGRAM_KEYS = {
    "grp_level": "grp_level", "grp_kind": "grp_kind", "grp_off": "grp_off",
    "elem": "flat_elem", "out": "flat_out", "in0": "flat_in0",
    "in1": "flat_in1", "net_level": "net_level",
    "input_bits": "input_bits", "output_bits": "output_bits",
}


def encode_program(prog) -> Tuple[Arrays, Meta]:
    """A :class:`~repro.gates.compiled.CompiledNetlist`'s arrays, as
    they are."""
    arrays = {key: getattr(prog, name)
              for name, key in _PROGRAM_KEYS.items()}
    return arrays, {"n_nets": int(prog.n_nets),
                    "n_levels": int(prog.n_levels)}


def decode_program(arrays: Arrays, meta: Meta):
    from ..gates.compiled import CompiledNetlist

    prog = CompiledNetlist(
        n_nets=int(meta["n_nets"]),
        **{name: arrays[key] for name, key in _PROGRAM_KEYS.items()})
    if prog.n_levels != int(meta["n_levels"]):
        raise CacheError("compiled program group level out of range")
    return prog


# ----------------------------------------------------------------------
# Coverage results
# ----------------------------------------------------------------------
def encode_coverage(result) -> Tuple[Arrays, Meta]:
    return (
        {"detect_time": np.asarray(result.detect_time, dtype=np.int64)},
        {"design_name": result.design_name,
         "generator_name": result.generator_name,
         "n_vectors": int(result.n_vectors),
         "fault_count": int(result.universe.fault_count)},
    )


def decode_coverage(arrays: Arrays, meta: Meta, universe: FaultUniverse):
    from ..faultsim.engine import coverage_from_detect_times

    if universe.fault_count != int(meta["fault_count"]):
        raise CacheError(
            f"cached coverage graded {meta['fault_count']} faults but "
            f"universe has {universe.fault_count}")
    return coverage_from_detect_times(
        universe, arrays["detect_time"],
        n_vectors=int(meta["n_vectors"]),
        design_name=str(meta["design_name"]),
        generator_name=str(meta["generator_name"]),
    )


# ----------------------------------------------------------------------
# Designs
# ----------------------------------------------------------------------
def encode_design(design) -> Tuple[Arrays, Meta]:
    from ..rtl.serialize import design_to_dict

    return {}, {"design": design_to_dict(design)}


def decode_design(arrays: Arrays, meta: Meta):
    from ..rtl.serialize import design_from_dict

    return design_from_dict(meta["design"])
