"""MISR partial-signature algebra: shards XOR back to the real MISR."""

from __future__ import annotations

import random

import pytest

from repro.bist.misr import Misr
from repro.cluster.signature import (
    combine_partials,
    mat_mul,
    mat_vec,
    shard_signature_partial,
    step_matrix,
    stream_signature,
)
from repro.errors import GeneratorError


def _random_stream(rng: random.Random, width: int, n: int):
    return [rng.getrandbits(width + 3) for _ in range(n)]


class TestStepMatrix:
    def test_matches_one_misr_clock(self):
        width = 8
        cols = step_matrix(width)
        for state in (0, 1, 0x80, 0xA5, 0xFF):
            misr = Misr(width, seed=state)
            misr.absorb([0])  # one clock, nothing injected
            assert mat_vec(cols, state) == misr.state

    def test_mat_mul_composes(self):
        cols = step_matrix(8)
        squared = mat_mul(cols, cols)
        for v in (1, 2, 0x55, 0xC3):
            assert mat_vec(squared, v) == mat_vec(cols, mat_vec(cols, v))

    def test_width_validation(self):
        with pytest.raises(GeneratorError):
            step_matrix(1)


class TestPartials:
    @pytest.mark.parametrize("width", [2, 5, 8, 13, 16, 24])
    @pytest.mark.parametrize("n", [1, 2, 5, 37, 200, 1025, 4097])
    def test_partition_xor_equals_full_signature(self, width, n):
        rng = random.Random(width * 1000 + n)
        words = _random_stream(rng, width, n)
        expected = Misr(width, seed=0).signature(words)
        indices = list(range(n))
        rng.shuffle(indices)
        parts = 1 if n == 1 else rng.randint(2, min(5, n))
        bounds = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 \
            else []
        partials = []
        lo = 0
        for hi in bounds + [n]:
            chunk = indices[lo:hi]
            partials.append(shard_signature_partial(
                width, chunk, [words[i] for i in chunk], n))
            lo = hi
        assert combine_partials(partials) == expected

    def test_stream_signature_matches_misr(self):
        words = [3, 1, 4, 1, 5, 9, 2, 6]
        assert stream_signature(16, words) == \
            Misr(16, seed=0).signature(words)

    def test_single_full_shard_is_the_signature(self):
        words = [7, 11, 13]
        assert shard_signature_partial(16, [0, 1, 2], words, 3) == \
            stream_signature(16, words)

    def test_duplicate_partial_cancels(self):
        # XORing a duplicated shard wipes its contribution — the reason
        # the merge refuses a second delivery of a shard.
        partial = shard_signature_partial(16, [0], [0x123], 4)
        assert partial != 0
        assert combine_partials([partial, partial]) == 0

    def test_empty_and_zero_cases(self):
        assert combine_partials([]) == 0
        assert shard_signature_partial(16, [], [], 0) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(GeneratorError):
            shard_signature_partial(16, [0, 1], [5], 4)

    def test_position_out_of_range_rejected(self):
        with pytest.raises(GeneratorError):
            shard_signature_partial(16, [4], [5], 4)
        with pytest.raises(GeneratorError):
            shard_signature_partial(16, [-1], [5], 4)

    def test_words_masked_to_width(self):
        # Detection times overflow a narrow MISR's width; the partial
        # must mask exactly like the real MISR's injection.
        wide = [0x1FFFF, 0x10000 + 42]
        assert shard_signature_partial(16, [0, 1], wide, 2) == \
            stream_signature(16, wide)
