"""Coordinator against a live in-process fleet: dispatch, failure
reassignment, dead endpoints, and single-node identity."""

from __future__ import annotations

import pytest

from repro.cluster import run_cluster_sweep
from repro.cluster.coordinator import ClusterCoordinator
from repro.errors import ClusterError
from repro.service.lifecycle import ServiceConfig
from repro.service.testing import ServiceThread

#: Nothing listens here — connections are refused instantly, which is
#: exactly the "worker died" failure mode the coordinator must survive.
DEAD_ENDPOINT = "http://127.0.0.1:9"

# 600 faults split on the 512-fault cone-batch boundary -> 2 shards.
SWEEP = dict(vectors=96, faults_limit=600, shard_faults=512,
             poll=0.3, shard_timeout=120.0)


@pytest.fixture(scope="module")
def fleet():
    with ServiceThread(ServiceConfig(port=0, no_cache=True)) as a, \
            ServiceThread(ServiceConfig(port=0, no_cache=True)) as b:
        yield a, b


class TestFleetSweep:
    def test_two_workers_match_single_node(self, fleet):
        a, b = fleet
        report = run_cluster_sweep([a.base_url, b.base_url], verify=True,
                                   **SWEEP)
        assert report.verified is True
        assert report.shards == 2
        assert report.merged.total == 600
        doc = report.to_doc()
        assert doc["signature"].startswith("0x")
        assert "endpoint_health" not in doc  # heartbeat_poll off
        assert sum(w["shards"] for w in doc["workers"]) >= report.shards
        assert sum(t["faults"] for t in doc["shard_timings"]
                   if not t["duplicate"]) == 600

    def test_dead_worker_is_survived(self, fleet):
        a, _b = fleet
        # Generous retry budget: the dead dispatcher burns attempts
        # fast (instant connection refusals) while the live worker is
        # busy grading; the sweep must not go fatal before the live
        # worker picks the shard up.
        report = run_cluster_sweep(
            [DEAD_ENDPOINT, a.base_url], verify=True, max_retries=8,
            **SWEEP)
        assert report.verified is True
        doc = report.to_doc()
        tallies = {w["endpoint"]: w for w in doc["workers"]}
        assert tallies[DEAD_ENDPOINT]["shards"] == 0
        assert tallies[DEAD_ENDPOINT]["failures"] > 0
        assert tallies[a.base_url]["shards"] == report.shards
        assert report.retries > 0

    def test_heartbeat_monitor_marks_dead_endpoint(self, fleet):
        a, _b = fleet
        report = run_cluster_sweep(
            [DEAD_ENDPOINT, a.base_url], max_retries=8,
            heartbeat_poll=0.2, **SWEEP)
        doc = report.to_doc()
        health = doc["endpoint_health"]
        # Two consecutive refused polls: the dead endpoint decays and
        # its dispatcher stops pulling shards; the live one keeps the
        # last fleet snapshot totals from its own /v1/fleet.
        assert health[DEAD_ENDPOINT]["state"] == "dead"
        assert health[DEAD_ENDPOINT]["consecutive_failures"] >= 2
        assert health[a.base_url]["state"] == "live"
        assert health[a.base_url]["polls"] >= 1
        assert health[a.base_url]["totals"] is not None
        assert report.merged.total == 600

    def test_heartbeat_poll_off_omits_endpoint_health(self):
        coord = ClusterCoordinator([DEAD_ENDPOINT], {}, total=10,
                                   test_length=16)
        assert coord.heartbeat_poll == 0.0
        with pytest.raises(ClusterError, match="heartbeat_poll"):
            ClusterCoordinator([DEAD_ENDPOINT], {}, total=10,
                               test_length=16, heartbeat_poll=-1.0)

    def test_all_workers_dead_is_fatal(self):
        with pytest.raises(ClusterError, match="failed after"):
            run_cluster_sweep([DEAD_ENDPOINT], vectors=96,
                              faults_limit=100, shard_faults=100,
                              poll=0.2, shard_timeout=10.0,
                              max_retries=1)


class TestSchedulingUnits:
    def _coordinator(self, **kwargs):
        defaults = dict(total=10, test_length=16)
        defaults.update(kwargs)
        return ClusterCoordinator(["http://127.0.0.1:9"], {}, **defaults)

    def test_backoff_grows_and_caps(self):
        coord = self._coordinator(backoff_base=0.5, backoff_cap=4.0)
        # Jitter is 0.5x-1.5x, so bound by [0.5*delay, 1.5*delay].
        for consecutive, delay in ((1, 0.5), (2, 1.0), (3, 2.0),
                                   (4, 4.0), (10, 4.0)):
            measured = coord._backoff(consecutive)
            assert 0.5 * delay <= measured <= 1.5 * delay

    def test_straggler_deadline_floors_and_scales(self):
        coord = self._coordinator(straggler_factor=3.0, straggler_min=5.0,
                                  shard_timeout=100.0)
        # No completions yet: half the shard timeout.
        assert coord._straggler_deadline() == 50.0
        coord._completed_seconds = [1.0, 1.0, 1.0]
        assert coord._straggler_deadline() == 5.0  # floor wins
        coord._completed_seconds = [2.0, 10.0, 4.0]
        assert coord._straggler_deadline() == 12.0  # 3x median

    def test_requires_endpoints(self):
        with pytest.raises(ClusterError):
            ClusterCoordinator([], {}, total=1, test_length=1)

    def test_run_requires_shards(self):
        with pytest.raises(ClusterError, match="no shards"):
            self._coordinator().run([])
