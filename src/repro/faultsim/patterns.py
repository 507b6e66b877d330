"""First-occurrence tracking of full-adder input patterns.

The fast coverage engine reduces fault simulation to one question per
cell and pattern: *when does pattern p first appear at cell c?*  This
module answers it word by word.  An operator's cells see three input
words per vector: the primary operand ``A``, the secondary operand ``B``
and the carry-in word ``C`` (for a ripple-carry adder
``C = (A + B + cin) ^ A ^ B``, see :func:`repro.fixedpoint.carry_in_word`).
Pattern ``p = (a<<2)|(b<<1)|c`` is present at exactly the cells set in
``A&B&C`` with each word complemented where ``p``'s bit is 0: one *code
plane* per pattern, a cell mask per vector.

Words are kept in the narrowest unsigned type that holds the operator's
width (``uint16`` up to 16 bits), and the carry word is computed in that
type: the sum wraps above the type's width, which leaves every bit below
it exact.  Up to :data:`GROUP` operators are staged and scanned together
in :data:`BLOCK`-vector blocks.  The scan OR-reduces each code plane
within every block and OR-accumulates the block masks, so the bits that
first turn on in a block are known from block masks alone; only those
(pattern, operator, block) cells are OR-accumulated vector by vector,
and the vector at which a cell's bit first turns on is that pattern's
first occurrence at the cell.

The tracker is incremental: feed it several simulation segments (e.g. a
mixed-mode session's phases) and indices keep counting across segments.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..fixedpoint import carry_in_word
from ..rtl.graph import Graph
from ..rtl.nodes import Node, OpKind
from ..rtl.simulate import simulate
from .dictionary import FaultUniverse

__all__ = ["PatternTracker", "track_patterns"]

UNSEEN = np.iinfo(np.int64).max

#: Operators staged before one scan covers them all.
GROUP = 8
#: Vectors per block of the scan.
BLOCK = 64
#: (bits, type) of the candidate word types, narrowest first.
_WORD_TYPES = ((16, np.uint16), (32, np.uint32), (64, np.uint64))


def _word_type(width: int) -> type:
    """The narrowest unsigned word type that holds ``width`` bits."""
    for bits, dtype in _WORD_TYPES:
        if width <= bits:
            return dtype
    raise SimulationError(f"operator width {width} exceeds 64 bits")


class PatternTracker:
    """Records the first vector index of each (cell, pattern) occurrence.

    Observations are staged and scanned in groups, so a segment's first
    occurrences land in ``first_seen`` at :meth:`advance`: read it, and
    the queries built on it, only after the segment is advanced.
    """

    def __init__(self, universe: FaultUniverse):
        self.universe = universe
        self.first_seen = np.full((universe.cell_count, 8), UNSEEN,
                                  dtype=np.int64)
        self.offset = 0  # vectors consumed so far
        # Staged operators: (first cell row, width) each, and their
        # ``a``, ``b``, ``c`` words in rows of one (3, GROUP, T) buffer.
        self._rows: List[Tuple[int, int]] = []
        self._words: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Simulator hook
    # ------------------------------------------------------------------
    def hook(self, node: Node, a: np.ndarray, b: np.ndarray) -> None:
        """Adder-hook callback: consume one operator's aligned operands."""
        width = node.fmt.width
        a1, b1, c1 = self._stage(node.nid, width, len(a))
        mask = (1 << width) - 1
        np.copyto(a1, a, casting="unsafe")
        a1 &= mask
        np.copyto(b1, b, casting="unsafe")
        is_sub = node.kind is OpKind.SUB
        if is_sub:
            np.invert(b1, out=b1)
        b1 &= mask
        c1[...] = carry_in_word(a1, b1, 1 if is_sub else 0)

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
        for dst, word in zip(self._stage(node_id, width, len(a)), (a, b, c)):
            np.copyto(dst, word, casting="unsafe")
            dst &= mask

    def _stage(self, node_id: int, width: int, length: int) -> np.ndarray:
        """A staging slot for one operator: its (3, T) word rows."""
        dtype = _word_type(width)
        words = self._words
        if words is None or words.dtype != dtype or words.shape[2] != length:
            self._scan()
            words = self._words = np.empty((3, GROUP, length), dtype=dtype)
        elif len(self._rows) == GROUP:
            self._scan()
        self._rows.append((self.universe.cell_index[(node_id, 0)], width))
        return words[:, len(self._rows) - 1]

    def _scan(self) -> None:
        """Fold the staged operators' first occurrences into
        ``first_seen``."""
        rows, self._rows = self._rows, []
        if not rows or not self._words.shape[2]:
            return
        n = len(rows)
        a1, b1, c1 = self._words[:, :n]
        dtype = a1.dtype
        length = a1.shape[1]
        n_blocks = -(-length // BLOCK)
        mask = np.array([(1 << w) - 1 for _, w in rows], dtype=dtype)[:, None]
        # plane[p, op, t]: the cells that receive pattern p at vector t,
        # zero past the segment's end.  ``a`` and ``b`` are masked, so no
        # plane has a bit at or above its operator's width.
        plane = np.empty((8, n, n_blocks * BLOCK), dtype=dtype)
        plane[:, :, length:] = 0
        x11 = a1 & b1
        for p, ab in ((7, x11), (5, a1 ^ x11), (3, b1 ^ x11),
                      (1, (a1 | b1) ^ mask)):
            hi, lo = plane[p, :, :length], plane[p - 1, :, :length]
            np.bitwise_and(ab, c1, out=hi)
            np.bitwise_xor(ab, hi, out=lo)
        # One row per block of each (pattern, operator) pair
        # q = pattern * n + op, blocks in order within q.
        plane = plane.reshape(-1, BLOCK)
        # blocks[j, q]: the cells q sees within block j, reduced over
        # the block read as 64-bit words whose narrower lanes are then
        # folded into one; before[j, q]: the cells q sees in earlier
        # blocks.
        lanes = plane.view(np.uint64)
        blocks = np.bitwise_or.reduceat(
            lanes.reshape(-1), np.arange(0, lanes.size, lanes.shape[1]))
        shift = 32
        while shift >= 8 * dtype.itemsize:
            blocks |= blocks >> shift
            shift //= 2
        blocks = blocks.astype(dtype).reshape(8 * n, n_blocks).T
        before = np.zeros_like(blocks)
        np.bitwise_or.accumulate(blocks[:-1], axis=0, out=before[1:])
        block, q = np.divmod(np.flatnonzero(blocks & ~before), 8 * n)
        if not len(q):
            return
        # Vector by vector, only in the blocks where a cell's bit first
        # turns on: fresh[k, i] holds the bits that first turn on at
        # vector k of block ``block[i]`` of pair ``q[i]``.
        prior = before[block, q]
        run = plane[q * n_blocks + block].T.copy()
        run[0] |= prior
        np.bitwise_or.accumulate(run, axis=0, out=run)
        fresh = run.copy()
        fresh[0] &= ~prior
        fresh[1:] &= ~run[:-1]
        hit = np.flatnonzero(fresh)
        k, i = np.divmod(hit, len(q))
        width = max(w for _, w in rows)
        which, bit = np.divmod(np.flatnonzero(
            (fresh.reshape(-1)[hit, None] >> np.arange(width, dtype=dtype))
            & 1), width)
        i = i[which]
        # Per pair and block: its first vector, and the flat index of
        # (its operator's bit-0 cell, its pattern) in ``first_seen``.
        start = self.offset + block * BLOCK
        base = np.array([r for r, _ in rows], dtype=np.int64)
        slot = base[q % n] * 8 + q // n
        # The same operator may be staged twice; ``minimum.at`` keeps
        # the earlier time for a repeated (cell, pattern).
        np.minimum.at(self.first_seen.reshape(-1), slot[i] + 8 * bit,
                      start[i] + k[which])

    def advance(self, n_vectors: int) -> None:
        """Declare a simulation segment of ``n_vectors`` consumed."""
        self._scan()
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
