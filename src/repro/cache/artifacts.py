"""Encoders/decoders between pipeline artifacts and npz-able arrays.

Four artifact kinds flow through the store (plus the design documents
the sweep workers rehydrate from):

``universe``
    A :class:`~repro.faultsim.dictionary.FaultUniverse`.  Cells carry
    their operator width and add/sub polarity so faults rebuild through
    :func:`~repro.gates.cells.variant_for_bit` — the decoded universe is
    object-identical in content to a fresh
    :func:`~repro.faultsim.dictionary.build_fault_universe` run, without
    re-running the structural-feasibility analysis.
``netlist``
    A flat :class:`~repro.gates.netlist.GateNetlist` (elaboration
    output), numeric bulk as arrays and the fault-site map as JSON.
``golden``
    A fault-free output waveform (one ``int64`` array).
``coverage``
    A :class:`~repro.faultsim.engine.CoverageResult`'s per-fault
    detection times; rehydration reattaches a universe.
``design``
    A :class:`~repro.rtl.build.FilterDesign` via the JSON document of
    :mod:`repro.rtl.serialize`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..errors import CacheError
from ..faultsim.dictionary import DesignFault, FaultUniverse
from ..gates.cells import variant_for_bit
from ..gates.netlist import Dff, Gate, GateNetlist, GateRef
from ..rtl.nodes import OpKind

__all__ = [
    "encode_universe", "decode_universe",
    "encode_netlist", "decode_netlist",
    "encode_golden", "decode_golden",
    "encode_coverage", "decode_coverage",
    "encode_design", "decode_design",
    "encode_program", "decode_program",
]

Arrays = Dict[str, Any]
Meta = Dict[str, Any]


# ----------------------------------------------------------------------
# Fault universes
# ----------------------------------------------------------------------
def encode_universe(graph, universe: FaultUniverse) -> Tuple[Arrays, Meta]:
    """Pack a universe built from ``graph`` into flat arrays."""
    node_info = {n.nid: (n.fmt.width, n.kind is OpKind.SUB)
                 for n in graph.arithmetic_nodes}
    cell_node = np.array([nid for nid, _bit in universe.cells],
                        dtype=np.int64)
    cell_bit = np.array([bit for _nid, bit in universe.cells],
                        dtype=np.int64)
    cell_width = np.empty(len(universe.cells), dtype=np.int64)
    cell_is_sub = np.empty(len(universe.cells), dtype=np.bool_)
    for row, (nid, _bit) in enumerate(universe.cells):
        try:
            width, is_sub = node_info[nid]
        except KeyError:
            raise CacheError(
                f"universe cell references node {nid} absent from graph")
        cell_width[row] = width
        cell_is_sub[row] = is_sub
    # One fault-name -> slot map per cell variant, shared by its cells.
    slot_maps: Dict[str, Dict[str, int]] = {}
    row_slots: List[Dict[str, int]] = []
    for bit, width, is_sub in zip(cell_bit.tolist(), cell_width.tolist(),
                                  cell_is_sub.tolist()):
        variant = variant_for_bit(bit, width, is_sub)
        if variant.kind not in slot_maps:
            slot_maps[variant.kind] = {cf.name: s for s, cf
                                       in enumerate(variant.faults)}
        row_slots.append(slot_maps[variant.kind])
    fault_slot = np.array(
        [row_slots[row][fault.cell_fault.name] for row, fault
         in zip(universe.fault_cell.tolist(), universe.faults)],
        dtype=np.int64)
    arrays = {
        "cell_node": cell_node,
        "cell_bit": cell_bit,
        "cell_width": cell_width,
        "cell_is_sub": cell_is_sub,
        "fault_cell": universe.fault_cell.astype(np.int64),
        "fault_slot": fault_slot,
        "fault_mask": universe.fault_mask.astype(np.uint8),
    }
    meta = {
        "design_name": universe.design_name,
        "uncollapsed_count": universe.uncollapsed_count,
        "untestable_count": universe.untestable_count,
        "fault_count": universe.fault_count,
    }
    return arrays, meta


def decode_universe(arrays: Arrays, meta: Meta) -> FaultUniverse:
    cell_node = arrays["cell_node"]
    cell_bit = arrays["cell_bit"]
    cell_width = arrays["cell_width"]
    cell_is_sub = arrays["cell_is_sub"]
    cells = [(int(n), int(b)) for n, b in zip(cell_node, cell_bit)]
    cell_index = {cb: row for row, cb in enumerate(cells)}
    fault_cell = arrays["fault_cell"].astype(np.int64)
    fault_slot = arrays["fault_slot"]
    fault_mask = arrays["fault_mask"].astype(np.uint8)
    faults: List[DesignFault] = []
    for i in range(len(fault_cell)):
        row = int(fault_cell[i])
        variant = variant_for_bit(int(cell_bit[row]), int(cell_width[row]),
                                  bool(cell_is_sub[row]))
        cf = variant.faults[int(fault_slot[i])]
        faults.append(DesignFault(
            index=i, node_id=int(cell_node[row]), bit=int(cell_bit[row]),
            cell_fault=cf, effective_mask=int(fault_mask[i])))
    universe = FaultUniverse(
        design_name=str(meta["design_name"]),
        faults=faults,
        cells=cells,
        cell_index=cell_index,
        fault_cell=fault_cell,
        fault_mask=fault_mask,
        uncollapsed_count=int(meta["uncollapsed_count"]),
        untestable_count=int(meta["untestable_count"]),
    )
    if universe.fault_count != int(meta["fault_count"]):
        raise CacheError("decoded universe fault count mismatch")
    return universe


# ----------------------------------------------------------------------
# Gate netlists
# ----------------------------------------------------------------------
_GATE_KINDS = ("xor", "and", "or", "not", "buf")


def _site_doc(sites: Dict[str, object]) -> Dict[str, Any]:
    doc: Dict[str, Any] = {}
    for name, line in sites.items():
        kind, payload = line  # type: ignore[misc]
        if kind == "net":
            doc[name] = ["net", int(payload)]
        else:
            doc[name] = ["pins", [[int(g), int(p)] for g, p in payload]]
    return doc


def encode_netlist(nl: GateNetlist) -> Tuple[Arrays, Meta]:
    gate_kind = np.array([_GATE_KINDS.index(g.kind) for g in nl.gates],
                        dtype=np.int8)
    gate_out = np.array([g.out for g in nl.gates], dtype=np.int64)
    ins_flat: List[int] = []
    ins_off = [0]
    for g in nl.gates:
        ins_flat.extend(g.ins)
        ins_off.append(len(ins_flat))
    gate_cell = np.array(
        [(-1, -1) if g.cell is None else (g.cell.node_id, g.cell.bit)
         for g in nl.gates], dtype=np.int64).reshape(len(nl.gates), 2)
    elements = np.array(
        [(0 if kind == "gate" else 1, idx) for kind, idx in nl.elements],
        dtype=np.int64).reshape(len(nl.elements), 2)
    node_ids = sorted(nl.node_bits)
    nb_flat: List[int] = []
    nb_off = [0]
    for nid in node_ids:
        nb_flat.extend(nl.node_bits[nid])
        nb_off.append(len(nb_flat))
    arrays = {
        "gate_kind": gate_kind,
        "gate_out": gate_out,
        "gate_ins": np.array(ins_flat, dtype=np.int64),
        "gate_ins_off": np.array(ins_off, dtype=np.int64),
        "gate_cell": gate_cell,
        "dff_d": np.array([d.d for d in nl.dffs], dtype=np.int64),
        "dff_q": np.array([d.q for d in nl.dffs], dtype=np.int64),
        "elements": elements,
        "input_bits": np.array(nl.input_bits, dtype=np.int64),
        "output_bits": np.array(nl.output_bits, dtype=np.int64),
        "node_ids": np.array(node_ids, dtype=np.int64),
        "node_bits": np.array(nb_flat, dtype=np.int64),
        "node_bits_off": np.array(nb_off, dtype=np.int64),
        "names": np.frombuffer("\n".join(nl.names).encode("utf-8"),
                               dtype=np.uint8),
    }
    meta = {
        "cell_sites": {f"{nid}:{bit}": _site_doc(sites)
                       for (nid, bit), sites in nl.cell_sites.items()},
    }
    return arrays, meta


def decode_netlist(arrays: Arrays, meta: Meta) -> GateNetlist:
    nl = GateNetlist()
    nl.names = bytes(arrays["names"].tobytes()).decode("utf-8").split("\n")
    ins_off = arrays["gate_ins_off"]
    ins_flat = arrays["gate_ins"]
    gate_cell = arrays["gate_cell"]
    nl.gates = []
    for i in range(len(arrays["gate_kind"])):
        node_id, bit = int(gate_cell[i, 0]), int(gate_cell[i, 1])
        cell = None if node_id < 0 else GateRef(node_id=node_id, bit=bit)
        ins = tuple(int(x) for x in
                    ins_flat[int(ins_off[i]):int(ins_off[i + 1])])
        nl.gates.append(Gate(kind=_GATE_KINDS[int(arrays["gate_kind"][i])],
                             out=int(arrays["gate_out"][i]), ins=ins,
                             cell=cell))
    nl.dffs = [Dff(d=int(d), q=int(q))
               for d, q in zip(arrays["dff_d"], arrays["dff_q"])]
    nl.elements = [("gate" if int(kind) == 0 else "dff", int(idx))
                   for kind, idx in arrays["elements"]]
    nl.input_bits = [int(x) for x in arrays["input_bits"]]
    nl.output_bits = [int(x) for x in arrays["output_bits"]]
    nb_off = arrays["node_bits_off"]
    nb_flat = arrays["node_bits"]
    nl.node_bits = {
        int(nid): [int(x) for x in nb_flat[int(nb_off[i]):int(nb_off[i + 1])]]
        for i, nid in enumerate(arrays["node_ids"])
    }
    sites_doc = meta.get("cell_sites", {})
    nl.cell_sites = {}
    for key, doc in sites_doc.items():
        nid, bit = key.split(":")
        sites: Dict[str, object] = {}
        for name, (kind, payload) in doc.items():
            if kind == "net":
                sites[name] = ("net", int(payload))
            else:
                sites[name] = ("pins",
                               tuple((int(g), int(p)) for g, p in payload))
        nl.cell_sites[(int(nid), int(bit))] = sites
    return nl


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
# Golden waveforms
# ----------------------------------------------------------------------
def encode_golden(golden: np.ndarray) -> Tuple[Arrays, Meta]:
    out = np.asarray(golden)
    return {"golden": out}, {"n_vectors": int(out.shape[0])}


def decode_golden(arrays: Arrays, meta: Meta) -> np.ndarray:
    golden = arrays["golden"]
    if int(meta.get("n_vectors", len(golden))) != len(golden):
        raise CacheError("golden waveform length mismatch")
    return golden


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
