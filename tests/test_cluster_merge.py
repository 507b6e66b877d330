"""Shard planning + merge determinism against the single-node oracle.

The property the whole cluster rests on: for ANY partition of the fault
universe into shards, ANY delivery order, and even duplicated
deliveries of a shard (straggler re-dispatch), the merged verdicts,
detection times, coverage checkpoints and MISR signature are
bit-identical to one single-node :func:`gate_level_missed` pass.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cluster import (
    MergedGrade,
    grade_shard,
    merge_shard_results,
    plan_shards,
    single_node_grade,
)
from repro.cluster.shards import DEFAULT_MISR_WIDTH, coverage_checkpoints
from repro.cluster.signature import shard_signature_partial, stream_signature
from repro.errors import ClusterError
from repro.gates import (
    elaborate,
    enumerate_cell_faults,
    schedule_fault_batches,
)
from repro.generators.base import match_width
from repro.resolve import make_generator

from helpers import chunk_end_times, reference_first_divergence

VECTORS = 96
FAULTS = 240


@pytest.fixture(scope="module")
def lp_universe(ctx):
    dsg = ctx.designs["LP"]
    nl = elaborate(dsg.graph)
    faults = enumerate_cell_faults(dsg.graph, nl)[:FAULTS]
    gen = make_generator("lfsr1", 12, VECTORS)
    raw = match_width(gen.sequence(VECTORS), gen.width,
                      dsg.input_fmt.width)
    return nl, raw, faults


@pytest.fixture(scope="module")
def oracle(lp_universe):
    nl, raw, faults = lp_universe
    return single_node_grade(nl, raw, faults)


@pytest.fixture(scope="module")
def reference_times(lp_universe):
    """The reference oracle's detection times on the grader's axis."""
    nl, raw, faults = lp_universe
    return chunk_end_times(reference_first_divergence(nl, raw, faults),
                           len(raw))


def _reference_shard(indices, times, total):
    """A shard result built from the reference oracle's times."""
    words = [int(times[i]) for i in indices]
    return {
        "indices": list(indices),
        "detected": [int(t >= 0) for t in words],
        "detect_times": words,
        "signature_partial": shard_signature_partial(
            DEFAULT_MISR_WIDTH, indices, words, total),
        "faults": len(indices),
    }


def _random_partition(rng, n, parts):
    indices = list(range(n))
    rng.shuffle(indices)
    bounds = sorted(rng.sample(range(1, n), parts - 1))
    out, lo = [], 0
    for hi in bounds + [n]:
        out.append(indices[lo:hi])
        lo = hi
    return out


class TestMergeDeterminism:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_any_partition_matches_single_node(self, lp_universe, oracle,
                                               seed):
        nl, raw, faults = lp_universe
        rng = random.Random(seed)
        parts = _random_partition(rng, len(faults), rng.randint(2, 5))
        results = []
        for sid, indices in enumerate(parts):
            res = grade_shard(nl, raw, faults, indices, len(faults))
            res["shard"] = sid
            results.append(res)
        # Deliveries arrive in arbitrary order, one shard twice.
        rng.shuffle(results)
        results.append(dict(results[0]))
        merged = merge_shard_results(len(faults), results,
                                     test_length=len(raw))
        assert merged.identical_to(oracle)
        assert merged.signature == oracle.signature
        assert merged.checkpoints == oracle.checkpoints

    def test_planned_shards_match_single_node(self, lp_universe, oracle):
        nl, raw, faults = lp_universe
        shards = plan_shards(faults, max_faults=96, batch_size=48)
        assert len(shards) > 1
        results = []
        for shard in shards:
            res = grade_shard(nl, raw, faults, shard.indices, len(faults))
            res["shard"] = shard.shard_id
            results.append(res)
        merged = merge_shard_results(len(faults), results,
                                     test_length=len(raw))
        assert merged.identical_to(oracle)

    def test_mixed_engine_fleet_merges_identically(self, lp_universe,
                                                   oracle, reference_times):
        """A fleet whose shards come alternately from the event grader
        and from the reference oracle's detection times still merges
        bit-identically — verdicts, detection times, signature and
        checkpoints — because both engines are exact."""
        nl, raw, faults = lp_universe
        shards = plan_shards(faults, max_faults=96, batch_size=48)
        assert len(shards) > 1
        results = []
        for shard in shards:
            if shard.shard_id % 2:
                res = _reference_shard(shard.indices, reference_times,
                                       len(faults))
            else:
                res = grade_shard(nl, raw, faults, shard.indices,
                                  len(faults))
            res["shard"] = shard.shard_id
            results.append(res)
        merged = merge_shard_results(len(faults), results,
                                     test_length=len(raw))
        assert merged.identical_to(oracle)

    def test_single_node_engines_agree(self, lp_universe, oracle,
                                       reference_times):
        _nl, raw, faults = lp_universe
        reference = MergedGrade(
            verdicts=reference_times >= 0,
            detect_times=reference_times,
            signature=stream_signature(
                DEFAULT_MISR_WIDTH, [int(t) for t in reference_times]),
            checkpoints=coverage_checkpoints(reference_times, len(faults),
                                             len(raw)),
            test_length=len(raw))
        assert oracle.identical_to(reference)

    def test_oracle_properties(self, oracle):
        assert oracle.total == FAULTS
        assert 0.0 < oracle.coverage <= 1.0
        assert oracle.test_length == VECTORS
        assert oracle.checkpoints[-1][0] == VECTORS
        assert oracle.checkpoints[-1][1] == pytest.approx(oracle.coverage)
        assert len(oracle.missed_indices) == oracle.total - oracle.detected


class TestPlanShards:
    def test_covers_universe_without_overlap(self, lp_universe):
        _nl, _raw, faults = lp_universe
        shards = plan_shards(faults, max_faults=64)
        seen = [i for s in shards for i in s.indices]
        assert sorted(seen) == list(range(len(faults)))
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_respects_max_faults(self, lp_universe):
        _nl, _raw, faults = lp_universe
        # batch_size below max_faults so packing (not splitting) rules.
        shards = plan_shards(faults, max_faults=100, batch_size=50)
        assert all(len(s) <= 100 for s in shards)

    def test_invalid_max_faults(self, lp_universe):
        _nl, _raw, faults = lp_universe
        with pytest.raises(ClusterError):
            plan_shards(faults, max_faults=0)

    def test_scheduler_shapes_packing(self, lp_universe):
        """Shards are whole cone batches, packed in schedule order."""
        _nl, _raw, faults = lp_universe
        batches = schedule_fault_batches(faults, 50)
        shards = plan_shards(faults, max_faults=100, batch_size=50)
        assert [i for s in shards for i in s.indices] \
            == [i for b in batches for i in b]
        home = {i: s.shard_id for s in shards for i in s.indices}
        for batch in batches:
            assert len({home[i] for i in batch}) == 1


class TestMergeRefusals:
    def _results(self, lp_universe, parts):
        nl, raw, faults = lp_universe
        out = []
        for sid, indices in enumerate(parts):
            res = grade_shard(nl, raw, faults, indices, len(faults))
            res["shard"] = sid
            out.append(res)
        return out

    def test_gap_refused(self, lp_universe):
        _nl, raw, faults = lp_universe
        half = list(range(len(faults) // 2))
        results = self._results(lp_universe, [half])
        with pytest.raises(ClusterError, match="incomplete"):
            merge_shard_results(len(faults), results,
                                test_length=len(raw))

    def test_overlap_refused(self, lp_universe):
        _nl, raw, faults = lp_universe
        n = len(faults)
        results = self._results(
            lp_universe, [list(range(n)), list(range(4))])
        with pytest.raises(ClusterError, match="overlap"):
            merge_shard_results(n, results, test_length=len(raw))

    def test_missing_shard_id_refused(self, lp_universe):
        _nl, raw, faults = lp_universe
        results = self._results(lp_universe,
                                [list(range(len(faults)))])
        del results[0]["shard"]
        with pytest.raises(ClusterError, match="shard id"):
            merge_shard_results(len(faults), results,
                                test_length=len(raw))

    def test_disagreeing_duplicate_refused(self, lp_universe):
        _nl, raw, faults = lp_universe
        results = self._results(lp_universe,
                                [list(range(len(faults)))])
        tampered = dict(results[0])
        tampered["signature_partial"] = results[0]["signature_partial"] ^ 1
        with pytest.raises(ClusterError, match="disagree"):
            merge_shard_results(len(faults), results + [tampered],
                                test_length=len(raw))

    def test_out_of_range_indices_refused(self, lp_universe):
        _nl, raw, faults = lp_universe
        n = len(faults)
        results = self._results(lp_universe, [list(range(n))])
        results[0]["indices"][0] = n
        with pytest.raises(ClusterError, match="out-of-range"):
            merge_shard_results(n, results, test_length=len(raw))


class TestGradeShard:
    def test_index_validation(self, lp_universe):
        nl, raw, faults = lp_universe
        with pytest.raises(ClusterError, match="out of range"):
            grade_shard(nl, raw, faults, [len(faults)], len(faults))
        with pytest.raises(ClusterError, match="stream length"):
            grade_shard(nl, raw, faults, [5], 5)

    def test_checkpoints_pure_function(self):
        times = np.array([-1, 64, 32, 64, -1], dtype=np.int64)
        points = coverage_checkpoints(times, 5, 96)
        assert points == [(32, 0.2), (64, 0.6), (96, 0.6)]
