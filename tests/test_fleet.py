"""FleetView heartbeat merging: rates, liveness decay, restarts,
snapshots and the per-worker Prometheus exposition."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    FLEET_SCHEMA,
    HEARTBEAT_SCHEMA,
    FleetView,
    Telemetry,
    build_heartbeat,
)

T0 = 1_700_000_000.0


def beat(worker, seq, unix, *, pid=100, interval=1.0, counters=None,
         progress=None, **extra):
    """A hand-rolled heartbeat document (same shape build_heartbeat
    produces)."""
    doc = {
        "schema": HEARTBEAT_SCHEMA,
        "worker": worker,
        "pid": pid,
        "host": "testhost",
        "seq": seq,
        "interval": interval,
        "unix": unix,
        "metrics": [{"type": "counter", "name": n, "value": v}
                    for n, v in (counters or {}).items()],
        "progress": [dict(p, type="progress") for p in (progress or [])],
    }
    doc.update(extra)
    return doc


class TestBuildHeartbeat:
    def test_carries_collector_state(self):
        tel = Telemetry()
        tel.counter("gates.evaluated").add(7)
        tel.progress("gates.grade", 3, 10)
        doc = build_heartbeat(tel, worker="w1", seq=4, interval=2.0,
                              queue_depth=5, inflight=["j-1"])
        assert doc["schema"] == HEARTBEAT_SCHEMA
        assert doc["worker"] == "w1"
        assert doc["seq"] == 4
        assert doc["queue_depth"] == 5
        assert doc["inflight"] == ["j-1"]
        names = {e["name"] for e in doc["metrics"]}
        assert "gates.evaluated" in names
        streams = {e["name"] for e in doc["progress"]}
        assert "gates.grade" in streams

    def test_disabled_collector_yields_empty_payload(self):
        from repro.telemetry import get_telemetry

        doc = build_heartbeat(get_telemetry(), worker="w1", seq=1,
                              interval=1.0)
        assert doc["metrics"] == []
        assert doc["progress"] == []


class TestObserve:
    def test_first_beat_registers_live_worker(self):
        view = FleetView()
        events = view.observe(beat("w1", 1, T0), now=T0)
        assert [name for name, _ in events] == ["fleet.heartbeat"]
        assert view.worker_state("w1") == "live"
        assert view.workers["w1"].beats == 1

    def test_rejects_foreign_schema_and_shapeless_beats(self):
        view = FleetView()
        with pytest.raises(TelemetryError, match="schema"):
            view.observe({"schema": "repro-heartbeat/9", "worker": "w"})
        with pytest.raises(TelemetryError, match="worker"):
            view.observe({"schema": HEARTBEAT_SCHEMA})

    def test_counter_rates_from_consecutive_beats(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0, counters={"gates.evaluated": 100}),
                     now=T0)
        view.observe(beat("w1", 2, T0 + 2,
                          counters={"gates.evaluated": 300}),
                     now=T0 + 2)
        assert view.workers["w1"].rates["gates.evaluated.rate"] \
            == pytest.approx(100.0)

    def test_progress_rates_feed_faults_per_sec(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0,
                          progress=[{"name": "gates.grade", "done": 0,
                                     "total": 1000}]), now=T0)
        view.observe(beat("w1", 2, T0 + 2,
                          progress=[{"name": "gates.grade", "done": 500,
                                     "total": 1000}]), now=T0 + 2)
        health = view.workers["w1"]
        assert health.rates["gates.grade"] == pytest.approx(250.0)
        assert health.faults_per_sec == pytest.approx(250.0)

    def test_future_clock_is_clamped_for_liveness(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0 + 3600), now=T0)
        assert view.workers["w1"].last_seen == T0


class TestRestart:
    def test_pid_change_resets_rate_baseline_not_progress(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0, pid=100,
                          counters={"gates.evaluated": 900},
                          progress=[{"name": "gates.grade", "done": 800,
                                     "total": 1000}]), now=T0)
        view.observe(beat("w1", 2, T0 + 1, pid=100,
                          counters={"gates.evaluated": 950},
                          progress=[{"name": "gates.grade", "done": 900,
                                     "total": 1000}]), now=T0 + 1)
        # Restart: new pid, counters back near zero.
        view.observe(beat("w1", 1, T0 + 2, pid=200,
                          counters={"gates.evaluated": 10},
                          progress=[{"name": "gates.grade", "done": 50,
                                     "total": 1000}]), now=T0 + 2)
        health = view.workers["w1"]
        assert health.restarts == 1
        # The cursor never rewinds below the pre-restart high-water mark.
        assert health.progress["gates.grade"]["done"] == 900.0
        # The rebooted counter snapshot replaced the old one wholesale.
        assert health.metrics["gates.evaluated"]["value"] == 10
        # And no negative rate leaked out of the restart.
        assert all(rate >= 0.0 for rate in health.rates.values())

    def test_seq_regression_counts_as_restart(self):
        view = FleetView()
        view.observe(beat("w1", 7, T0), now=T0)
        view.observe(beat("w1", 1, T0 + 1), now=T0 + 1)
        assert view.workers["w1"].restarts == 1


class TestLiveness:
    def test_decay_ladder_and_recovery(self):
        view = FleetView(suspect_misses=1.5, dead_misses=2.0)
        view.observe(beat("w1", 1, T0, interval=1.0), now=T0)
        assert view.sweep(now=T0 + 1.4) == []
        events = view.sweep(now=T0 + 1.7)
        assert events[0][1]["state"] == "suspect"
        events = view.sweep(now=T0 + 2.5)
        assert events[0][1]["state"] == "dead"
        # Transitions only decay forward: a later sweep at a smaller
        # missed count must not resurrect the worker by itself.
        assert view.sweep(now=T0 + 2.5) == []
        # A fresh heartbeat does.
        events = view.observe(beat("w1", 2, T0 + 10), now=T0 + 10)
        transitions = [d for name, d in events if name == "fleet.worker"]
        assert transitions[0]["previous"] == "dead"
        assert view.worker_state("w1") == "live"

    def test_counts(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0, interval=1.0), now=T0)
        view.observe(beat("w2", 1, T0 + 9, interval=1.0), now=T0 + 9)
        view.sweep(now=T0 + 9.1)
        assert view.counts() == {"live": 1, "suspect": 0, "dead": 1}


class TestAggregation:
    def _two_worker_view(self):
        view = FleetView()
        for seq, unix in ((1, T0), (2, T0 + 1)):
            view.observe(beat("w1", seq, unix,
                              counters={"gates.evaluated": 100 * seq}),
                         now=unix)
            view.observe(beat("w2", seq, unix,
                              counters={"gates.evaluated": 200 * seq}),
                         now=unix)
        return view

    def test_merged_values_sum_counters_and_rates(self):
        values = self._two_worker_view().merged_values()
        assert values["gates.evaluated"] == pytest.approx(600.0)
        assert values["gates.evaluated.rate"] == pytest.approx(300.0)
        assert values["fleet.workers"] == 2.0
        assert values["fleet.workers.live"] == 2.0

    def test_merged_histograms_and_edge_mismatch_skip(self):
        view = FleetView()
        hist_a = {"type": "histogram", "name": "lat", "edges": [1.0, 2.0],
                  "counts": [1, 1, 0], "count": 2, "sum": 2.0,
                  "min": 0.5, "max": 1.5}
        hist_b = dict(hist_a, counts=[0, 0, 2], sum=6.0, min=3.0, max=3.0)
        hist_alien = dict(hist_a, edges=[5.0, 9.0])
        view.observe(dict(beat("w1", 1, T0), metrics=[hist_a]), now=T0)
        view.observe(dict(beat("w2", 1, T0), metrics=[hist_b]), now=T0)
        view.observe(dict(beat("w3", 1, T0), metrics=[hist_alien]),
                     now=T0)
        values = view.merged_values()
        # w3's incompatible edges are skipped, not fatal; w1+w2 merge.
        assert values["lat.count"] == 4.0
        assert values["lat.mean"] == pytest.approx(2.0)
        assert "lat.p99" in values

    def test_dead_workers_excluded_from_throughput_totals(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0, interval=1.0, queue_depth=4),
                     now=T0)
        view.observe(beat("w2", 1, T0 + 9, interval=1.0, queue_depth=2),
                     now=T0 + 9)
        view.sweep(now=T0 + 9.1)
        values = view.merged_values()
        assert values["fleet.workers.dead"] == 1.0
        assert values["fleet.queue_depth"] == 2.0


class TestSnapshot:
    def test_snapshot_is_schema_valid(self):
        from repro.reports import validate_report

        view = FleetView()
        view.observe(beat("w1", 1, T0, queue_depth=1), now=T0)
        view.observe(beat("w2", 1, T0, inflight=["j-1", "j-2"]), now=T0)
        doc = view.snapshot(now=T0 + 0.5)
        assert doc["schema"] == FLEET_SCHEMA
        assert validate_report(doc) == FLEET_SCHEMA
        assert [w["worker"] for w in doc["workers"]] == ["w1", "w2"]
        assert doc["totals"]["inflight"] == 2


class TestPrometheus:
    def test_per_worker_labels(self):
        view = FleetView()
        view.observe(beat("w1", 1, T0, queue_depth=3,
                          counters={"gates.evaluated": 10}), now=T0)
        text = view.prometheus(now=T0 + 0.5)
        assert 'repro_fleet_workers{state="live"} 1' in text
        assert 'repro_fleet_worker_up{worker="w1"} 1' in text
        assert 'repro_fleet_worker_queue_depth{worker="w1"} 3' in text
        assert 'repro_gates_evaluated_total{worker="w1"} 10' in text

    def test_label_escaping(self):
        view = FleetView()
        view.observe(beat('w"x\\y', 1, T0), now=T0)
        text = view.prometheus(now=T0)
        assert 'worker="w\\"x\\\\y"' in text
