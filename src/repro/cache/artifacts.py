"""Encoders/decoders between pipeline artifacts and npz-able arrays.

Three artifact kinds flow through the store:

``design``
    A :class:`~repro.rtl.build.FilterDesign` via the JSON document of
    :mod:`repro.rtl.serialize`.
``coverage``
    A :class:`~repro.faultsim.engine.CoverageResult`'s per-fault
    detection times; rehydration reattaches a universe.
``gateprog``
    A :class:`~repro.gates.compiled.CompiledNetlist`, one row per
    (level, kind) op group.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

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
def encode_program(prog) -> Tuple[Arrays, Meta]:
    """Flatten a :class:`~repro.gates.compiled.CompiledNetlist`.

    One row per (level, kind) op group, CSR-style: ``grp_off`` delimits
    each group's slice of the flat per-op arrays.  ``flat_in1`` is -1
    for one-input kinds (their groups carry no second operand).
    """
    from ..gates.compiled import OP_KINDS

    grp_level: List[int] = []
    grp_kind: List[int] = []
    grp_off = [0]
    flat_elem: List[np.ndarray] = []
    flat_out: List[np.ndarray] = []
    flat_in0: List[np.ndarray] = []
    flat_in1: List[np.ndarray] = []
    for li, ops in enumerate(prog.levels):
        for op in ops:
            grp_level.append(li)
            grp_kind.append(OP_KINDS.index(op.kind))
            grp_off.append(grp_off[-1] + len(op.out))
            flat_elem.append(op.elem)
            flat_out.append(op.out)
            flat_in0.append(op.in0)
            flat_in1.append(op.in1 if op.in1 is not None
                            else np.full(len(op.out), -1, dtype=np.int64))
    empty = np.zeros(0, dtype=np.int64)
    arrays = {
        "grp_level": np.array(grp_level, dtype=np.int64),
        "grp_kind": np.array(grp_kind, dtype=np.int8),
        "grp_off": np.array(grp_off, dtype=np.int64),
        "flat_elem": np.concatenate(flat_elem) if flat_elem else empty,
        "flat_out": np.concatenate(flat_out) if flat_out else empty,
        "flat_in0": np.concatenate(flat_in0) if flat_in0 else empty,
        "flat_in1": np.concatenate(flat_in1) if flat_in1 else empty,
        "net_level": prog.net_level.astype(np.int64),
        "input_bits": prog.input_bits.astype(np.int64),
        "output_bits": prog.output_bits.astype(np.int64),
    }
    meta = {"n_nets": int(prog.n_nets), "n_levels": int(prog.n_levels)}
    return arrays, meta


def decode_program(arrays: Arrays, meta: Meta):
    from ..gates.compiled import OP_KINDS, CompiledNetlist, LevelOp

    n_levels = int(meta["n_levels"])
    prog = CompiledNetlist(
        n_nets=int(meta["n_nets"]),
        input_bits=arrays["input_bits"].astype(np.int64),
        output_bits=arrays["output_bits"].astype(np.int64),
        levels=[[] for _ in range(n_levels)],
        net_level=arrays["net_level"].astype(np.int64),
    )
    off = arrays["grp_off"]
    two_input = frozenset(("xor", "and", "or"))
    for g in range(len(arrays["grp_kind"])):
        lo, hi = int(off[g]), int(off[g + 1])
        kind = OP_KINDS[int(arrays["grp_kind"][g])]
        li = int(arrays["grp_level"][g])
        if li >= n_levels:
            raise CacheError("compiled program group level out of range")
        op = LevelOp(
            kind=kind,
            elem=arrays["flat_elem"][lo:hi].astype(np.int64),
            out=arrays["flat_out"][lo:hi].astype(np.int64),
            in0=arrays["flat_in0"][lo:hi].astype(np.int64),
            in1=(arrays["flat_in1"][lo:hi].astype(np.int64)
                 if kind in two_input else None),
        )
        oi = len(prog.levels[li])
        if kind != "dff":
            for pos, gidx in enumerate(op.elem):
                prog.gate_loc[int(gidx)] = (li, oi, pos)
        prog.levels[li].append(op)
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
