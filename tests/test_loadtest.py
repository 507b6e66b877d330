"""Loadtest generator: units, thresholds, and a short live run."""

from __future__ import annotations

import pytest

from repro.cluster.loadtest import (
    LOADTEST_SCHEMA,
    LoadtestReport,
    _percentile,
    _Sample,
    _vary,
    run_loadtest,
)
from repro.errors import ClusterError
from repro.reports import validate_report
from repro.service.lifecycle import ServiceConfig
from repro.service.testing import ServiceThread


def _report(outcomes):
    samples = [_Sample("spectrum", outcome, latency)
               for outcome, latency in outcomes]
    return LoadtestReport(url="http://x", concurrency=1,
                          duration_seconds=1.0, elapsed_seconds=2.0,
                          samples=samples)


class TestUnits:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 50) == 2.0
        assert _percentile(values, 99) == 4.0
        assert _percentile([], 99) == 0.0
        assert _percentile([7.0], 50) == 7.0
        # Rank ceil(q/100 * n): an exact q*n/100 = k picks the k-th
        # value, never the one above it.
        assert _percentile([1.0, 2.0], 50) == 1.0
        assert _percentile([float(v) for v in range(1, 11)], 90) == 9.0
        assert _percentile([float(v) for v in range(1, 101)], 99) == 99.0

    def test_vary_preserves_and_bounds(self):
        import random
        rng = random.Random(0)
        for _ in range(50):
            out = _vary({"vectors": 256, "design": "LP"}, rng)
            assert out["design"] == "LP"
            assert out["vectors"] in (64, 128, 256)
        assert _vary({"points": 4}, rng)["points"] >= 2

    def test_report_rates(self):
        report = _report([("ok", 0.5), ("ok", 1.5), ("busy", 0.0),
                          ("error", 0.1)])
        assert report.requests == 4
        assert report.completed == 2
        assert report.busy == 1
        assert report.errors == 1
        assert report.busy_rate == 0.25
        assert report.error_rate == 0.25
        assert report.throughput == pytest.approx(1.0)
        assert report.latencies == [0.5, 1.5]


class TestCheck:
    def test_passing_run_has_no_failures(self):
        report = _report([("ok", 0.2)] * 10)
        assert report.check(max_p99=1.0, min_throughput=1.0,
                            max_busy_rate=0.0, max_error_rate=0.0,
                            min_completed=10) == []

    def test_each_threshold_trips(self):
        report = _report([("ok", 2.0), ("busy", 0.0), ("error", 0.0)])
        failures = report.check(max_p99=1.0, min_throughput=10.0,
                                max_busy_rate=0.1, max_error_rate=0.1,
                                min_completed=5)
        assert len(failures) == 5
        assert any("p99" in f for f in failures)
        assert any("throughput" in f for f in failures)
        assert any("busy" in f for f in failures)
        assert any("error rate" in f for f in failures)
        assert any("completed" in f for f in failures)

    def test_none_thresholds_check_nothing(self):
        assert _report([("error", 0.1)]).check() == []


class TestDoc:
    def test_to_doc_validates_against_schema(self):
        report = _report([("ok", 0.5), ("busy", 0.0)])
        doc = report.to_doc()
        assert doc["schema"] == LOADTEST_SCHEMA
        assert validate_report(doc) == LOADTEST_SCHEMA
        assert doc["by_kind"]["spectrum"]["requests"] == 2
        assert doc["by_kind"]["spectrum"]["latency_seconds"]["p50"] == 0.5


class TestRunValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ClusterError):
            run_loadtest("http://x", concurrency=0)
        with pytest.raises(ClusterError):
            run_loadtest("http://x", duration=0)
        with pytest.raises(ClusterError, match="mix offers"):
            run_loadtest("http://x", kinds=["nope"])


class TestLiveRun:
    def test_short_spectrum_loadtest(self):
        with ServiceThread(ServiceConfig(port=0, no_cache=True)) as svc:
            report = run_loadtest(svc.base_url, concurrency=2,
                                  duration=1.5, kinds=("spectrum",),
                                  job_timeout=30.0)
        assert report.completed >= 1
        assert report.errors == 0
        assert report.elapsed_seconds >= 1.5
        doc = report.to_doc()
        assert validate_report(doc) == LOADTEST_SCHEMA
        assert set(doc["by_kind"]) == {"spectrum"}
