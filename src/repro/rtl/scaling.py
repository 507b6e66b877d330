"""Width assignment via scaling analysis.

"The use of scaling techniques to identify and remove redundant sign bits
is the first step towards obtaining a testable design" (Section 3).  This
pass sizes every node of the datapath from the L1 norm of its impulse
response — the classical worst-case (conservative) scaling bound — or,
optionally, from a statistical bound (Section 9's "more aggressive
scaling techniques").

Two knobs model the design styles discussed in the paper:

* ``mode="l1"`` (default): no overflow is possible for any input; upper
  accumulator bits that the input statistics rarely exercise become the
  *excess headroom* that makes tests T1/T6 hard to apply.
* ``mode="statistical"``: widths sized to ``sigma_multiplier`` standard
  deviations of the white-noise response (never above the L1 bound),
  trading occasional overflow for testability.
* ``accumulator_width``: forces a uniform width on the accumulation
  chain, modeling designs with a uniform output datapath (the Table 1
  designs use 16 bits); must be at least the computed requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import DesignError
from ..fixedpoint import Fixed
from .graph import Graph
from .impulse import NodeResponse, impulse_responses
from .nodes import OpKind

__all__ = ["ScalingReport", "assign_formats", "width_for_bound", "redundant_sign_bits"]

_MIN_WIDTH = 2


def width_for_bound(bound: float, frac: int) -> int:
    """Smallest width whose positive raw range covers ``bound``.

    ``bound`` is an engineering-unit magnitude bound; the returned width
    satisfies ``2**(width-1) - 1 >= ceil(bound * 2**frac)``.
    """
    if bound < 0:
        raise DesignError(f"negative magnitude bound {bound}")
    bound_raw = int(math.ceil(bound * (1 << frac) - 1e-9))
    if bound_raw <= 0:
        return _MIN_WIDTH
    # Need 2**(w-1) - 1 >= bound_raw, i.e. w = 1 + ceil(log2(bound_raw + 1)),
    # and ceil(log2(n + 1)) == n.bit_length() for n >= 1.
    return max(1 + bound_raw.bit_length(), _MIN_WIDTH)


@dataclass
class ScalingReport:
    """Outcome of a scaling pass."""

    mode: str
    frac: int
    bounds: Dict[int, float]
    widths: Dict[int, int]
    iterations: int


def _target_bound(resp: NodeResponse, mode: str, sigma_multiplier: float,
                  input_sigma: float, input_peak: float) -> float:
    l1_bound = resp.magnitude_bound(input_peak)
    if mode == "l1":
        return l1_bound
    if mode == "statistical":
        sigma = math.sqrt(resp.energy) * input_sigma
        return min(l1_bound, sigma_multiplier * sigma + resp.truncation_bound)
    raise DesignError(f"unknown scaling mode {mode!r}")


def assign_formats(
    graph: Graph,
    frac: int,
    mode: str = "l1",
    sigma_multiplier: float = 4.0,
    input_sigma: float = 1.0 / math.sqrt(3.0),
    accumulator_width: Optional[int] = None,
    max_iterations: int = 8,
) -> ScalingReport:
    """Assign a :class:`Fixed` format to every node of ``graph`` in place.

    The input node must already carry its format.  All other nodes receive
    binary point ``frac``; widths come from the scaling bound.  Because
    truncation error bounds depend on the assigned formats, the pass
    iterates to a fixed point (widths only ever grow, so it terminates).
    """
    input_fmt = graph.input_node.fmt
    if input_fmt is None:
        raise DesignError("input node must carry a format before scaling")
    # Engineering input peak: |x| <= max(|min|, max) in engineering units.
    input_peak = max(abs(input_fmt.min_value), input_fmt.max_value)
    input_sigma_eng = input_sigma * input_fmt.half_scale

    order = graph.topological_order()
    widths: Dict[int, int] = {}
    bounds: Dict[int, float] = {}
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        responses = impulse_responses(graph)
        changed = False
        for nid in order:
            node = graph.node(nid)
            if node.kind is OpKind.INPUT:
                bounds[nid] = input_peak
                widths[nid] = node.fmt.width
                continue
            resp = responses[nid]
            if node.kind in (OpKind.DELAY, OpKind.OUTPUT):
                src = graph.node(node.srcs[0])
                fmt = src.fmt
                bounds[nid] = bounds[node.srcs[0]]
            elif node.kind is OpKind.CONST:
                bounds[nid] = 0.0
                fmt = Fixed(_MIN_WIDTH, frac)
            else:
                bound = _target_bound(resp, mode, sigma_multiplier,
                                      input_sigma_eng, input_peak)
                bounds[nid] = bound
                width = width_for_bound(bound, frac)
                if node.role == "accumulator" and accumulator_width is not None:
                    if accumulator_width < width:
                        raise DesignError(
                            f"accumulator_width={accumulator_width} below the "
                            f"scaling requirement {width} at node {node}"
                        )
                    width = accumulator_width
                if node.fmt is not None and node.fmt.frac == frac:
                    # Widths never shrink across iterations, so the loop
                    # converges even as truncation bounds grow.
                    width = max(width, node.fmt.width)
                fmt = Fixed(width, frac)
            if node.fmt != fmt:
                node.fmt = fmt
                changed = True
            widths[nid] = node.fmt.width
        if not changed:
            break
    graph.validate()
    return ScalingReport(mode=mode, frac=frac, bounds=bounds, widths=widths,
                         iterations=iterations)


def redundant_sign_bits(graph: Graph) -> Dict[int, int]:
    """Upper bits of each arithmetic node that worst-case analysis proves
    can never differ from the sign bit.

    A positive count flags the *excess headroom* test problem of
    Section 4: those bits (and the carry logic feeding them) cannot be
    exercised by any in-range input.
    """
    responses = impulse_responses(graph)
    input_fmt = graph.input_node.fmt
    input_peak = max(abs(input_fmt.min_value), input_fmt.max_value)
    out: Dict[int, int] = {}
    for node in graph.arithmetic_nodes:
        required = width_for_bound(
            responses[node.nid].magnitude_bound(input_peak), node.fmt.frac
        )
        out[node.nid] = max(0, node.fmt.width - required)
    return out
