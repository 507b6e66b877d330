"""Structural feasibility of full-adder input patterns.

Some cell input patterns can never occur, no matter the test applied.
The dominant case in scaled FIR datapaths: at cells above the secondary
operand's significant bits, ``b`` is a sign-extension wire, and e.g. test
T1 (``a=0, b=0, c=1``) would force a sum bit inconsistent with the result
sign — the corresponding faults are *redundant*.  The paper's design flow
removes such redundancy structurally (refs [2,3], "scaling and redundant
operator elimination"); its fault universe therefore excludes them.  This
module reproduces that step analytically.

Model: an operator computes ``A ± B`` where the value intervals of ``A``
and ``B`` are known from scaling analysis and (in the transposed-form
architecture) the operands are controllable essentially independently —
``A`` accumulates *past* inputs, ``B`` is a shifted copy of the *current*
input.  A pattern ``(a, b, c)`` is feasible at cell ``k`` iff values
``A``, ``B`` exist in their intervals whose bit ``k`` values are ``a``
and ``b`` (after inversion for subtractors) and whose low ``k`` bits can
produce carry ``c``.  Everything reduces to the min/max of the low-k-bit
field of an integer interval, split by the value of bit ``k`` — exact
interval arithmetic, no simulation.

The analysis *over*-approximates feasibility (operand intervals are
treated as gap-free and independent), so pruning never removes a
genuinely testable fault class under those assumptions; residual
untestable faults may survive at cells where operands are correlated
within one tap.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import FaultModelError
from ..rtl.build import FilterDesign
from ..rtl.intervals import value_intervals
from ..rtl.nodes import OpKind

__all__ = ["interval_low_bits", "feasible_cell_mask", "design_feasible_masks",
           "unread_operator_bits"]


def interval_low_bits(lo: int, hi: int, k: int) -> List[Tuple[int, int, int]]:
    """Possible ``(bit_k, min_low, max_low)`` for integers in ``[lo, hi]``.

    ``low`` is the value of bits ``0..k-1``.  Returns up to two entries,
    one per achievable ``bit_k`` value.  The computation works on the
    two's-complement residues modulo ``2**(k+1)``, which form either the
    full residue ring (wide interval) or one wrapped arc.
    """
    if hi < lo:
        raise FaultModelError(f"empty interval [{lo}, {hi}]")
    m = 1 << (k + 1)
    half = 1 << k
    out: Dict[int, Tuple[int, int]] = {}

    def add(bit: int, low_lo: int, low_hi: int) -> None:
        if low_lo > low_hi:
            return
        if bit in out:
            cur = out[bit]
            out[bit] = (min(cur[0], low_lo), max(cur[1], low_hi))
        else:
            out[bit] = (low_lo, low_hi)

    if hi - lo + 1 >= m:
        add(0, 0, half - 1)
        add(1, 0, half - 1)
    else:
        start = lo % m
        end = hi % m
        arcs = [(start, end)] if start <= end else [(start, m - 1), (0, end)]
        for a0, a1 in arcs:
            # Intersect the arc with each bit_k half of the residue ring.
            add(0, max(a0, 0), min(a1, half - 1))
            add(1, max(a0, half) - half, min(a1, m - 1) - half)
    return [(bit, v[0], v[1]) for bit, v in sorted(out.items())]


def feasible_cell_mask(
    a_interval: Tuple[int, int],
    b_interval: Tuple[int, int],
    k: int,
    is_subtractor: bool,
) -> int:
    """Bitmask of feasible codes ``(a<<2)|(b<<1)|c`` at cell ``k``.

    ``b`` in the code is the bit *physically at the cell*: the inverted
    operand bit for subtractors.  Carry-in at bit 0 is 0 for adders and 1
    for subtractors; for ``k == 0`` only codes with that carry value are
    feasible.
    """
    cin = 1 if is_subtractor else 0
    half = 1 << k
    a_stats = interval_low_bits(*a_interval, k)
    b_raw_stats = interval_low_bits(*b_interval, k)
    # Transform B stats to the complemented operand for subtractors:
    # ~B has bit_k = 1 - bit_k and low = 2**k - 1 - low (reversing order).
    if is_subtractor:
        b_stats = [
            (1 - bit, half - 1 - mx, half - 1 - mn)
            for bit, mn, mx in b_raw_stats
        ]
    else:
        b_stats = b_raw_stats
    mask = 0
    for a_bit, a_min, a_max in a_stats:
        for b_bit, b_min, b_max in b_stats:
            if k == 0:
                mask |= 1 << ((a_bit << 2) | (b_bit << 1) | cin)
                continue
            # carry into bit k is 1 iff lowA + lowB~ + cin >= 2**k
            if a_max + b_max + cin >= half:
                mask |= 1 << ((a_bit << 2) | (b_bit << 1) | 1)
            if a_min + b_min + cin < half:
                mask |= 1 << ((a_bit << 2) | (b_bit << 1) | 0)
    return mask


def design_feasible_masks(design_or_graph) -> Dict[Tuple[int, int], int]:
    """Feasible-code mask for every (operator, bit) cell of a design.

    Operand value intervals come from the exact interval analysis of
    :func:`repro.rtl.intervals.value_intervals` — tight enough to expose
    e.g. a ``x >> 15`` term that only ever takes the values ``-1`` and
    ``0``, whose consumers therefore never see certain carry patterns.
    """
    graph = design_or_graph.graph if isinstance(design_or_graph, FilterDesign) \
        else design_or_graph
    intervals = value_intervals(graph)
    out: Dict[Tuple[int, int], int] = {}
    for node in graph.arithmetic_nodes:
        is_sub = node.kind is OpKind.SUB
        a_iv = intervals[node.srcs[0]]
        b_iv = intervals[node.srcs[1]]
        for bit in range(node.fmt.width):
            out[(node.nid, bit)] = feasible_cell_mask(a_iv, b_iv, bit, is_sub)
    return out


def unread_operator_bits(design_or_graph) -> Dict[int, Tuple[int, ...]]:
    """Operator output bits that no consumer reads.

    Names every ADD/SUB node whose consumers are all ADD/SUB nodes with
    the same fraction bits and a narrower width, mapped to the producer
    bits at and above the widest consumer's width.  Such a consumer
    reads the producer's bit ``i`` as its own bit ``i``, so those bits
    drive nothing, and a fault whose error reaches only them is
    excited without ever reaching the output.
    """
    graph = design_or_graph.graph if isinstance(design_or_graph, FilterDesign) \
        else design_or_graph
    consumers = graph.consumers()
    out: Dict[int, Tuple[int, ...]] = {}
    for node in graph.arithmetic_nodes:
        readers = [graph.node(c) for c in consumers[node.nid]]
        if not readers or not all(r.is_arithmetic
                                  and r.fmt.frac == node.fmt.frac
                                  for r in readers):
            continue
        read = max(r.fmt.width for r in readers)
        if read < node.fmt.width:
            out[node.nid] = tuple(range(read, node.fmt.width))
    return out
