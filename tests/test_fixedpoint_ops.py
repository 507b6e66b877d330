"""Tests for repro.fixedpoint.ops — the arithmetic primitives the whole
fault model rests on, checked against a bit-by-bit ripple-carry oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FixedPointError
from repro.fixedpoint import (
    arith_shift_right,
    carry_in_word,
    cell_pattern_codes,
    wrap,
    wrap_add,
    wrap_sub,
)

WIDTH = 8
RAW = st.integers(-(1 << (WIDTH - 1)), (1 << (WIDTH - 1)) - 1)


def carry_chain(a, b, cin, width: int):
    """Oracle: carries inside a ``width``-bit ripple-carry adder.

    Ripples one full-adder cell at a time.  Returns shape
    ``(width + 1,) + broadcast(a, b).shape``; ``carries[k]`` is the carry
    *into* bit ``k`` and ``carries[width]`` the carry out of the MSB cell.
    For a subtractor pass the complemented subtrahend and ``cin=1``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.broadcast_to(np.asarray(cin), np.broadcast_shapes(a.shape, b.shape)).astype(a.dtype, copy=True)
    out = np.empty((width + 1,) + c.shape, dtype=a.dtype)
    out[0] = c
    for k in range(width):
        ak = (a >> k) & 1
        bk = (b >> k) & 1
        c = (ak & bk) | (out[k] & (ak ^ bk))
        out[k + 1] = c
    return out


def oracle_codes(a, b, cin, width: int, invert_b: bool = False):
    """Oracle per-cell codes ``(a_k<<2)|(b_k<<1)|c_k`` from the ripple."""
    a = np.asarray(a)
    b = ~np.asarray(b) if invert_b else np.asarray(b)
    carries = carry_chain(a, b, cin, width)
    codes = np.empty((width,) + carries.shape[1:], dtype=np.uint8)
    for k in range(width):
        codes[k] = (((a >> k) & 1) << 2) | (((b >> k) & 1) << 1) | carries[k]
    return codes


def signed_operands(rng, width: int, shape):
    half = 1 << (width - 1)
    return rng.integers(-half, half, size=shape)


class TestWrapArithmetic:
    @given(RAW, RAW)
    def test_wrap_add_matches_modular_sum(self, a, b):
        assert wrap_add(a, b, WIDTH) == wrap(a + b, WIDTH)

    @given(RAW, RAW)
    def test_wrap_sub_matches_modular_difference(self, a, b):
        assert wrap_sub(a, b, WIDTH) == wrap(a - b, WIDTH)

    def test_overflow_example(self):
        assert wrap_add(100, 100, 8) == -56


class TestShift:
    def test_floor_semantics(self):
        assert arith_shift_right(-3, 1) == -2  # floor(-1.5)
        assert arith_shift_right(3, 1) == 1

    def test_negative_shift_rejected(self):
        with pytest.raises(FixedPointError):
            arith_shift_right(1, -1)


class TestCarryChain:
    @given(RAW, RAW)
    def test_carries_reconstruct_addition(self, a, b):
        """sum bit k == a_k ^ b_k ^ c_k for the computed carries."""
        carries = carry_chain(a, b, 0, WIDTH)
        total = wrap(a + b, WIDTH)
        for k in range(WIDTH):
            ak = (a >> k) & 1
            bk = (b >> k) & 1
            assert ((total >> k) & 1) == ak ^ bk ^ int(carries[k])

    @given(RAW, RAW)
    def test_subtract_via_complement(self, a, b):
        """a - b == a + ~b + 1 cell-by-cell."""
        carries = carry_chain(a, ~b, 1, WIDTH)
        total = wrap(a - b, WIDTH)
        for k in range(WIDTH):
            ak = (a >> k) & 1
            bk = ((~b) >> k) & 1
            assert ((total >> k) & 1) == ak ^ bk ^ int(carries[k])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-128, 128, size=50)
        b = rng.integers(-128, 128, size=50)
        vec = carry_chain(a, b, 0, WIDTH)
        for i in range(50):
            scalar = carry_chain(int(a[i]), int(b[i]), 0, WIDTH)
            assert np.array_equal(vec[:, i], scalar)


class TestCarryInWord:
    @pytest.mark.parametrize("width", range(2, 21))
    @pytest.mark.parametrize("subtract", [False, True])
    def test_matches_ripple_oracle(self, width, subtract, rng):
        """Bit k of the carry word is the ripple carry into bit k, up to
        and including the carry out of the MSB cell."""
        a = signed_operands(rng, width, 500)
        b = signed_operands(rng, width, 500)
        cin = 1 if subtract else 0
        if subtract:
            b = ~b
        word = carry_in_word(a, b, cin)
        carries = carry_chain(a, b, cin, width)
        for k in range(width + 1):
            assert np.array_equal((word >> k) & 1, carries[k])


class TestPatternCodes:
    @given(RAW, RAW)
    def test_codes_encode_cell_bits(self, a, b):
        codes = cell_pattern_codes(a, b, 0, WIDTH)
        carries = carry_chain(a, b, 0, WIDTH)
        for k in range(WIDTH):
            expected = (((a >> k) & 1) << 2) | (((b >> k) & 1) << 1) | int(carries[k])
            assert int(codes[k]) == expected

    @pytest.mark.parametrize("width", range(2, 21))
    @pytest.mark.parametrize("subtract", [False, True])
    @pytest.mark.parametrize("shapes", [((300,), (300,)), ((17, 1), (1, 23))],
                             ids=["vectors", "grid"])
    def test_matches_oracle_over_random_operands(self, width, subtract,
                                                 shapes, rng):
        """Operand vectors, and the ``(W, nA, nB)`` grid the test-length
        analysis broadcasts."""
        a = signed_operands(rng, width, shapes[0])
        b = signed_operands(rng, width, shapes[1])
        cin = 1 if subtract else 0
        codes = cell_pattern_codes(a, b, cin, width, invert_b=subtract)
        assert codes.shape == (width,) + np.broadcast_shapes(a.shape, b.shape)
        assert codes.dtype == np.uint8
        assert np.array_equal(
            codes, oracle_codes(a, b, cin, width, invert_b=subtract))

    @given(RAW, RAW)
    def test_subtractor_codes_use_inverted_b(self, a, b):
        codes = cell_pattern_codes(a, b, 1, WIDTH, invert_b=True)
        for k in range(WIDTH):
            b_bit = (codes[k] >> 1) & 1
            assert int(b_bit) == 1 - ((b >> k) & 1)

    def test_lsb_carry_is_cin(self):
        codes = cell_pattern_codes(0, 0, 1, 4)
        assert int(codes[0]) & 1 == 1
        codes = cell_pattern_codes(0, 0, 0, 4)
        assert int(codes[0]) & 1 == 0

    def test_shape(self):
        codes = cell_pattern_codes(np.arange(10), np.arange(10), 0, 6)
        assert codes.shape == (6, 10)
        assert codes.dtype == np.uint8
