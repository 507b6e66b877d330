"""Bit-exact arithmetic primitives shared by the RTL and gate simulators.

These functions operate on raw two's-complement integers (scalars or
``numpy`` integer arrays) and reproduce hardware behaviour exactly:

* additions and subtractions wrap on overflow (ripple-carry adders have no
  saturation logic);
* right shifts are arithmetic and truncate toward minus infinity;
* :func:`carry_in_word` gives the carry into every cell of a ripple-carry
  adder at once, from one word add: ``C = (a + b + cin) ^ a ^ b``.  With
  the operand words it says which full-adder input pattern each cell
  received, which is what the fault model needs.
"""

from __future__ import annotations

import numpy as np

from ..errors import FixedPointError
from .qformat import wrap

__all__ = [
    "wrap_add",
    "wrap_sub",
    "arith_shift_right",
    "carry_in_word",
    "cell_pattern_codes",
]


def wrap_add(a, b, width: int):
    """``a + b`` in ``width``-bit two's complement with wrap-around."""
    return wrap(np.asarray(a) + np.asarray(b), width)


def wrap_sub(a, b, width: int):
    """``a - b`` in ``width``-bit two's complement with wrap-around."""
    return wrap(np.asarray(a) - np.asarray(b), width)


def arith_shift_right(a, shift: int):
    """Arithmetic right shift (floor division by ``2**shift``)."""
    if shift < 0:
        raise FixedPointError(f"shift must be non-negative, got {shift}")
    return np.asarray(a) >> shift


def carry_in_word(a, b, cin):
    """Carry into every cell of a ripple-carry ``a + b + cin``, as one word.

    A full adder's sum bit is ``a_k ^ b_k ^ c_k``, so the word sum's bit
    ``k`` XORed with the operand bits leaves the carry into cell ``k``:
    ``C = (a + b + cin) ^ a ^ b``.  Bit ``k`` of the result is the carry
    into bit ``k`` for every ``k`` below the operand dtype's width; callers
    read only the low ``width`` bits.  For a subtractor pass the bitwise
    complement of the subtrahend and ``cin=1``.  Operands broadcast.
    """
    return (a + b + cin) ^ a ^ b


def cell_pattern_codes(a, b, cin, width: int, invert_b: bool = False):
    """Per-cell test-pattern codes ``n = (a<<2)|(b<<1)|c`` (paper's ``Tn``).

    The code at each full-adder cell identifies which of the eight tests
    T0..T7 the cell receives, with ``a`` the primary input bit, ``b`` the
    secondary input bit and ``c`` the carry input — the numbering used in
    Table 2 of the paper.  ``invert_b`` models a subtractor: each cell
    sees the complemented ``b`` bit, and the caller passes ``cin=1``.

    Returns an array of shape ``(width,) + broadcast(a, b).shape`` with
    dtype uint8.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if invert_b:
        b = ~b
    c = carry_in_word(a, b, cin)
    ks = np.arange(width).reshape((width,) + (1,) * c.ndim)
    codes = (((a >> ks) & 1) << 2) | (((b >> ks) & 1) << 1) | ((c >> ks) & 1)
    return codes.astype(np.uint8)
