"""Randomized equivalence: the exact grader vs the reference simulator.

The optimized gate-level engine (compiled programs, fused cone sweeps,
word-widened batches, time chunking with fault dropping, iterative
deepening) must be a *pure speedup*: verdict-for-verdict identical to
the retained pre-optimization reference engine on every design, batch
shape, chunk size and word width — and, mapped onto the driver's
chunk-end time axis, identical in detection times and MISR signatures.
These tests sweep randomized small designs and stimulus to pin that
contract down.
"""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.gates import (
    elaborate,
    enumerate_cell_faults,
    fault_parallel_reference,
    gate_level_missed,
    gate_level_missed_reference,
    schedule_fault_batches,
)
from repro.rtl import design_from_coefficients

from helpers import (
    SMALL_COEFSETS,
    build_small_design,
    chunk_end_times,
    reference_first_divergence,
)


def _fault_key(fault):
    return (fault.node_id, fault.bit, fault.cell_fault)


def _random_design(rng, tag):
    """A small random FIR-style design: random taps, widths and depth."""
    n_taps = int(rng.integers(2, 6))
    coefs = [float(c) for c in rng.uniform(-0.6, 0.6, size=n_taps)]
    # Ensure at least one tap is representable (non-tiny).
    coefs[0] = float(np.sign(coefs[0]) or 1.0) * max(abs(coefs[0]), 0.1)
    return design_from_coefficients(
        coefs, name=f"rand-{tag}",
        coef_frac=int(rng.integers(6, 9)),
        acc_frac=int(rng.integers(8, 11)),
        max_nonzeros=int(rng.integers(2, 5)))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260806)


class TestRandomizedEquivalence:
    def test_random_designs_full_universe(self, rng):
        """Missed lists match the reference on randomized designs."""
        for trial in range(4):
            design = _random_design(rng, trial)
            nl = elaborate(design.graph)
            faults = enumerate_cell_faults(design.graph, nl)
            raw = rng.integers(-2048, 2048, size=int(rng.integers(70, 400)))
            expect = [_fault_key(f)
                      for f in gate_level_missed_reference(nl, raw, faults)]
            got = [_fault_key(f) for f in gate_level_missed(nl, raw, faults)]
            assert got == expect, f"trial {trial}"

    def test_chunk_sizes_and_word_widths(self, rng):
        """Chunking/widening are evaluation details, not semantics:
        verdicts match the reference, and detection times match its
        first divergent vectors mapped to each chunk size."""
        design = build_small_design("with_zero")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=333)
        expect = [_fault_key(f)
                  for f in gate_level_missed_reference(nl, raw, faults)]
        first = reference_first_divergence(nl, raw, faults)
        for chunk in (1, 17, 64, 512, 10_000):
            ref_dt = chunk_end_times(first, len(raw), chunk)
            for words in (1, 2, 5):
                dt = np.full(len(faults), -1, dtype=np.int64)
                got = [_fault_key(f)
                       for f in gate_level_missed(nl, raw, faults,
                                                  chunk=chunk, words=words,
                                                  detect_times=dt)]
                assert got == expect, (chunk, words)
                assert np.array_equal(dt, ref_dt), (chunk, words)

    def test_straddling_batches_match_reference(self, rng):
        """The exact grader == fault_parallel_reference on any
        <=64-fault window, including ones straddling cone batches."""
        design = build_small_design("leading_negative")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=200)
        for _ in range(6):
            lo = int(rng.integers(0, max(1, len(faults) - 64)))
            batch = faults[lo:lo + int(rng.integers(1, 65))]
            missed = gate_level_missed(nl, raw, batch)
            first = fault_parallel_reference(
                nl, raw, [f.netlist_fault for f in batch])
            assert [f for f, t in zip(batch, first) if t < 0] == missed, lo

    def test_grade_matches_reference_on_permutations(self, rng):
        """Verdicts and detection times are independent of fault order
        (scatter-back)."""
        design = build_small_design("single_digit")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=150)
        base = np.full(len(faults), -1, dtype=np.int64)
        gate_level_missed(nl, raw, faults, detect_times=base)
        first = reference_first_divergence(nl, raw, faults)
        assert np.array_equal(base >= 0, first >= 0)
        for _ in range(3):
            perm = rng.permutation(len(faults))
            shuffled = np.full(len(faults), -1, dtype=np.int64)
            gate_level_missed(nl, raw, [faults[i] for i in perm],
                              detect_times=shuffled)
            assert np.array_equal(shuffled, base[perm])

    def test_schedule_covers_every_fault_exactly_once(self, rng):
        """The cone-aware scheduler is a permutation in batches."""
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        for batch_size in (64, 512, 64 * 8):
            batches = schedule_fault_batches(faults, batch_size)
            flat = sorted(i for b in batches for i in b)
            assert flat == list(range(len(faults)))
            assert all(len(b) <= batch_size for b in batches)


class TestEngineEquivalence:
    """Two-way engine identity: event == reference.

    The reference oracle keeps each fault's first divergent vector;
    mapped onto the driver's chunk-end axis (see
    :func:`helpers.chunk_end_times`) it must reproduce the event
    engine's verdicts, detection times and MISR signatures — full
    stream and sharded partials — across chunk sizes and word widths.
    """

    @staticmethod
    def _assert_partials_merge(times, full):
        from repro.cluster.signature import (combine_partials,
                                             shard_signature_partial)

        words = [int(t) for t in times]
        total = len(words)
        cut = total // 3
        partials = [
            shard_signature_partial(16, range(0, cut), words[:cut], total),
            shard_signature_partial(16, range(cut, total), words[cut:],
                                    total),
        ]
        assert combine_partials(partials) == full

    def test_engines_verdicts_times_and_signatures(self, rng):
        from repro.cluster.signature import stream_signature

        for trial in range(2):
            design = _random_design(rng, f"eng-{trial}")
            nl = elaborate(design.graph)
            faults = enumerate_cell_faults(design.graph, nl)
            raw = rng.integers(-2048, 2048,
                               size=int(rng.integers(120, 320)))
            first = reference_first_divergence(nl, raw, faults)
            expect = [_fault_key(f) for f, t in zip(faults, first)
                      if t < 0]
            for chunk, words in ((None, None), (64, 2), (64, 1),
                                 (512, 8)):
                tag = (trial, chunk, words)
                ref_dt = chunk_end_times(first, len(raw), chunk)
                ref_sig = stream_signature(16, [int(t) for t in ref_dt])
                dt = np.full(len(faults), -1, dtype=np.int64)
                missed = gate_level_missed(
                    nl, raw, faults, chunk=chunk, words=words,
                    detect_times=dt)
                assert [_fault_key(f) for f in missed] == expect, tag
                assert np.array_equal(dt, ref_dt), tag
                assert stream_signature(
                    16, [int(t) for t in dt]) == ref_sig, tag
                self._assert_partials_merge(dt, ref_sig)

    def test_partial_misr_signatures_merge_identically(self, rng):
        """Sharded partial signatures over each engine's detection
        times combine to the same full-stream MISR signature."""
        from repro.cluster.signature import stream_signature

        design = build_small_design("plain")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=256)
        event = np.full(len(faults), -1, dtype=np.int64)
        gate_level_missed(nl, raw, faults, detect_times=event)
        reference = chunk_end_times(
            reference_first_divergence(nl, raw, faults), len(raw))
        sigs = set()
        for times in (event, reference):
            full = stream_signature(16, [int(t) for t in times])
            self._assert_partials_merge(times, full)
            sigs.add(full)
        assert len(sigs) == 1  # engines agree bit for bit


class TestCachedEquivalence:
    def test_cached_run_is_identical_and_hits(self, rng, tmp_path):
        """gate_level_missed(cache=...) returns identical verdicts and
        the second run reloads the compiled program from the cache."""
        cache = ArtifactCache(tmp_path / "cache")
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=128)
        plain = [_fault_key(f) for f in gate_level_missed(nl, raw, faults)]

        first = [_fault_key(f)
                 for f in gate_level_missed(nl, raw, faults, cache=cache)]
        assert first == plain
        stores = cache.stats.stores
        assert stores == 1  # the program; golden is re-simulated

        # A fresh netlist object defeats the in-memory memo, so the
        # second run must come from the on-disk artifacts.
        nl2 = elaborate(design.graph)
        second = [_fault_key(f)
                  for f in gate_level_missed(nl2, raw, faults, cache=cache)]
        assert second == plain
        assert cache.stats.hits == 1
        assert cache.stats.stores == stores

    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS))
    def test_all_small_coefsets(self, key, rng):
        design = build_small_design(key)
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=96)
        expect = [_fault_key(f)
                  for f in gate_level_missed_reference(nl, raw, faults)]
        got = [_fault_key(f) for f in gate_level_missed(nl, raw, faults)]
        assert got == expect
