"""Order-independent MISR signature merging over GF(2).

A Galois MISR (:class:`repro.bist.misr.Misr`) clocks one linear update
``L`` per word and XORs the (masked) word into its state, so from a
zero seed the final signature of a stream ``w_0 .. w_{n-1}`` is

    sig = XOR_i  L^(n-1-i) (w_i & mask)

— every word's contribution is independent of every other word's.  A
worker holding an arbitrary *subset* of stream positions can therefore
compact its shard into a single **partial** (the XOR of its words'
contributions), and the coordinator recovers the exact full-stream
signature by XORing partials — no matter how the universe was
partitioned, permuted or re-dispatched.  This is what lets a fleet
reproduce the single-node MISR signature bit for bit without shipping
the response stream anywhere.

``L`` is the ``width x width`` GF(2) matrix of the shift-and-poly step;
``L^k`` is applied with square-and-multiply over precomputed squarings,
all of a shard's words at once: for each squaring ``L^(2^j)``, the
words whose exponent has bit ``j`` set go through the matrix column by
column as one word array, so a 4,096-fault shard costs
``log2(n) * width`` array operations, not a re-simulation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..errors import GeneratorError
from ..generators.polynomials import default_poly

__all__ = [
    "combine_partials",
    "shard_signature_partial",
    "step_matrix",
    "stream_signature",
]

#: A GF(2) linear map as columns: ``cols[i]`` is the image of basis
#: vector ``1 << i`` packed as an int bitmask.
Matrix = List[int]


def resolve_poly(width: int) -> int:
    """The MISR feedback polynomial: :class:`Misr`'s default for
    ``width``."""
    if width < 2:
        raise GeneratorError(f"MISR width must be >= 2, got {width}")
    return default_poly(width)


def step_matrix(width: int) -> Matrix:
    """One MISR clock as a linear map: shift left, fold the poly on a
    set MSB (injection of the input word is handled separately)."""
    poly = resolve_poly(width)
    mask = (1 << width) - 1
    low = poly & mask
    cols: Matrix = []
    for i in range(width):
        basis = 1 << i
        msb = (basis >> (width - 1)) & 1
        cols.append(((basis << 1) & mask) ^ (low if msb else 0))
    return cols


def mat_vec(cols: Matrix, v: int) -> int:
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= cols[i]
        v >>= 1
        i += 1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Compose: ``(a . b)(v) == a(b(v))``."""
    return [mat_vec(a, col) for col in b]


def _squarings(width: int, max_exp: int) -> List[Matrix]:
    """``[L, L^2, L^4, ...]`` covering exponents up to ``max_exp``."""
    mats = [step_matrix(width)]
    while (1 << len(mats)) <= max_exp:
        mats.append(mat_mul(mats[-1], mats[-1]))
    return mats


def shard_signature_partial(width: int, positions: Sequence[int],
                            words: Sequence[int], total: int) -> int:
    """One shard's contribution to the full-stream MISR signature.

    ``positions`` are the global stream indices (0-based, ``< total``)
    of this shard's ``words``; the return value is
    ``XOR_i L^(total-1-positions[i]) (words[i] & mask)``.  XOR the
    partials of a complete, non-overlapping partition together
    (:func:`combine_partials`) and you have exactly
    ``Misr(width).signature(full_stream)`` for a zero seed.
    """
    if len(positions) != len(words):
        raise GeneratorError(
            f"positions/words length mismatch: "
            f"{len(positions)} != {len(words)}")
    if total <= 0:
        return 0
    mats = _squarings(width, max(total - 1, 1))
    mask = (1 << width) - 1
    pos = np.array([int(p) for p in positions], dtype=np.int64)
    bad = pos[(pos < 0) | (pos >= total)]
    if bad.size:
        raise GeneratorError(
            f"stream position {int(bad[0])} out of range [0, {total})")
    # Python ints mask any word (negative, wider than 64 bits) exactly
    # like the real MISR's injection; wider registers use object arrays.
    dtype = np.uint64 if width <= 64 else object
    vals = np.array([int(w) & mask for w in words], dtype=dtype)
    exps = (total - 1) - pos
    for j, cols in enumerate(mats):
        sel = np.flatnonzero((exps >> j) & 1)
        if not sel.size:
            continue
        v = vals[sel]
        out = np.zeros_like(v)
        for i, col in enumerate(cols):
            out ^= ((v >> i) & 1) * col
        vals[sel] = out
    return int(np.bitwise_xor.reduce(vals)) if vals.size else 0


def combine_partials(partials: Iterable[int]) -> int:
    """Merge shard partials into the full-stream signature (plain XOR)."""
    sig = 0
    for p in partials:
        sig ^= int(p)
    return sig


def stream_signature(width: int, words: Sequence[int]) -> int:
    """The single-node oracle: clock a real :class:`Misr` over the
    stream (zero seed, matching the partial algebra)."""
    from ..bist.misr import Misr

    return Misr(width, seed=0).signature(words)
