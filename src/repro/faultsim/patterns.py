"""First-occurrence tracking of full-adder input patterns.

The fast coverage engine reduces fault simulation to one question per
cell and pattern: *when does pattern p first appear at cell c?*  This
module answers it word by word.  An operator's cells see three input
words per vector: the primary operand ``A``, the secondary operand ``B``
and the carry-in word ``C`` (for a ripple-carry adder
``C = (A + B + cin) ^ A ^ B``, see :func:`repro.fixedpoint.carry_in_word`).
Pattern ``p = (a<<2)|(b<<1)|c`` is present at exactly the cells set in
``A&B&C`` with each word complemented where ``p``'s bit is 0.  An
``np.bitwise_or.accumulate`` over those per-vector cell masks changes
value at most ``width`` times, and the vector at which a cell's bit first
turns on is that pattern's first occurrence at the cell.

The tracker is incremental: feed it several simulation segments (e.g. a
mixed-mode session's phases) and indices keep counting across segments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..fixedpoint import carry_in_word
from ..rtl.graph import Graph
from ..rtl.nodes import Node, OpKind
from ..rtl.simulate import simulate
from .dictionary import FaultUniverse

__all__ = ["PatternTracker", "track_patterns"]

UNSEEN = np.iinfo(np.int64).max


class PatternTracker:
    """Records the first vector index of each (cell, pattern) occurrence."""

    def __init__(self, universe: FaultUniverse):
        self.universe = universe
        self.first_seen = np.full((universe.cell_count, 8), UNSEEN,
                                  dtype=np.int64)
        self.offset = 0  # vectors consumed so far

    # ------------------------------------------------------------------
    # Simulator hook
    # ------------------------------------------------------------------
    def hook(self, node: Node, a: np.ndarray, b: np.ndarray) -> None:
        """Adder-hook callback: consume one operator's aligned operands."""
        is_sub = node.kind is OpKind.SUB
        if is_sub:
            b = ~b
        c = carry_in_word(a, b, 1 if is_sub else 0)
        self.observe_words(node.nid, node.fmt.width, a, b, c)

    def observe_words(self, node_id: int, width: int, a: np.ndarray,
                      b: np.ndarray, c: np.ndarray) -> None:
        """Record one operator's cell input words over a segment.

        ``a``, ``b`` and ``c`` are length-``T`` integer words whose bit
        ``k`` is the primary, secondary and carry input of the operator's
        bit-``k`` cell at each vector; bits at and above ``width`` are
        ignored.  The universe's cells for an operator are contiguous and
        start at bit 0, so one slice covers them all.  Usable for any
        operator style (ripple-carry, carry-save compressor) that
        registered its cells under ``node_id``.
        """
        mask = (1 << width) - 1
        a1, b1, c1 = (np.bitwise_and(w, mask) for w in (a, b, c))
        a0, b0, c0 = (w ^ mask for w in (a1, b1, c1))
        ab = (a0 & b0, a0 & b1, a1 & b0, a1 & b1)
        length = len(a1)
        # Row p, column t + 1: the cells that have received pattern p by
        # vector t.  Column 0 is the empty set before the segment.
        seen = np.zeros((8, length + 1), dtype=a1.dtype)
        for p in range(8):
            np.bitwise_and(ab[p >> 1], c1 if p & 1 else c0, out=seen[p, 1:])
        np.bitwise_or.accumulate(seen, axis=1, out=seen)
        # Each cell's bit turns on once, so a row changes at most
        # ``width`` times, and its change points are the first occurrences.
        change = np.flatnonzero(seen[:, 1:] != seen[:, :-1])
        pattern, vector = np.divmod(change, length)
        fresh = seen[pattern, vector + 1] ^ seen[pattern, vector]
        which, bit = np.nonzero((fresh[:, None] >> np.arange(width)) & 1)
        pattern = pattern[which]
        when = vector[which] + self.offset
        base = self.universe.cell_index[(node_id, 0)]
        first = self.first_seen[base:base + width]  # view
        first[bit, pattern] = np.minimum(first[bit, pattern], when)

    def advance(self, n_vectors: int) -> None:
        """Declare a simulation segment of ``n_vectors`` consumed."""
        self.offset += n_vectors

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def vectors_seen(self) -> int:
        return self.offset

    def seen_mask(self, at: Optional[int] = None) -> np.ndarray:
        """(cells, 8) bool: pattern seen strictly before vector ``at``."""
        limit = self.offset if at is None else at
        return self.first_seen < limit

    def untested_patterns(self, node_id: int, bit: int) -> list:
        """Patterns never observed at one cell (as test numbers Tn)."""
        row = self.universe.cell_index[(node_id, bit)]
        return [p for p in range(8) if self.first_seen[row, p] == UNSEEN]


def track_patterns(
    graph: Graph,
    universe: FaultUniverse,
    input_raw: np.ndarray,
    tracker: Optional[PatternTracker] = None,
    extra_hook=None,
) -> PatternTracker:
    """Simulate ``input_raw`` and record pattern first occurrences.

    Pass an existing ``tracker`` to continue a session (indices keep
    counting), e.g. for mode-switched generators simulated per phase.
    NOTE: continuing a session re-runs the datapath from reset registers;
    for the long FIR pipelines studied here the few warm-up vectors are
    irrelevant, and generators like :class:`MixedModeLfsr` avoid the
    issue entirely by producing the whole session in one sequence.

    ``extra_hook`` is an additional ``AdderHook`` (e.g. a telemetry
    :class:`~repro.telemetry.ZoneTracer`'s ``hook``) observing the same
    aligned operands the tracker sees, in the same single pass.
    """
    if tracker is None:
        tracker = PatternTracker(universe)
    if tracker.universe is not universe:
        raise SimulationError("tracker belongs to a different fault universe")
    if extra_hook is None:
        hook = tracker.hook
    else:
        def hook(node, a, b):
            tracker.hook(node, a, b)
            extra_hook(node, a, b)
    simulate(graph, input_raw, adder_hook=hook)
    tracker.advance(len(input_raw))
    return tracker
