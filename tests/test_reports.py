"""Report schema validators and the ``runs validate --schema`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.reports import (
    REPORT_SCHEMAS,
    ReportSchemaError,
    validate_report,
    validate_report_file,
    validate_report_files,
)


def _bench_parallel():
    side = {"seconds": 1.0, "vectors_per_sec": 100.0,
            "faults_per_sec": 50.0}
    return {"schema": "repro-bench-parallel/1", "serial": dict(side),
            "parallel": dict(side), "speedup": 1.0, "identical": True}


def _bench_gatesim():
    def engine(seconds, counters=False):
        doc = {"seconds": seconds,
               "faults_per_sec": 100.0 / seconds,
               "phases": {"compile_seconds": 0.1, "golden_seconds": 0.1,
                          "grade_seconds": seconds - 0.2}}
        if counters:
            doc["counters"] = {"gates.fault_batches": 3}
        return doc

    return {"schema": "repro-bench-gatesim/3",
            "engines": {"event": engine(1.0, counters=True),
                        "reference": engine(8.0)},
            "speedups": {"event_vs_reference": 8.0},
            "identical": True}


def _cluster_sweep():
    return {
        "schema": "repro-cluster-sweep/1",
        "params": {"design": "LP"},
        "faults": 10, "detected": 8, "coverage": 0.8,
        "signature": "0xbeef",
        "checkpoints": [{"vectors": 64, "coverage": 0.8}],
        "shards": 2,
        "workers": [{"endpoint": "http://w:1", "state": "live",
                     "shards": 2, "faults": 10, "busy_seconds": 1.0,
                     "failures": 0}],
        "shard_timings": [
            {"shard": 0, "faults": 6},
            {"shard": 1, "faults": 4},
        ],
    }


_VALID = {
    "repro-bench-parallel/1": _bench_parallel,
    "repro-bench-gatesim/3": _bench_gatesim,
    "repro-cluster-sweep/1": _cluster_sweep,
}


class TestValidDocs:
    @pytest.mark.parametrize("schema", sorted(REPORT_SCHEMAS))
    def test_valid_doc_passes(self, schema):
        assert validate_report(_VALID[schema]()) == schema

    def test_every_schema_has_a_fixture(self):
        assert set(_VALID) == set(REPORT_SCHEMAS)


class TestRejections:
    def test_unknown_schema(self):
        with pytest.raises(ReportSchemaError, match="unknown report"):
            validate_report({"schema": "repro-nope/9"})

    def test_non_object(self):
        with pytest.raises(ReportSchemaError, match="JSON object"):
            validate_report([1, 2])

    def test_bench_parallel_not_identical(self):
        doc = _bench_parallel()
        doc["identical"] = False
        with pytest.raises(ReportSchemaError, match="bit-identical"):
            validate_report(doc)

    def test_bench_gatesim_zero_rate(self):
        doc = _bench_gatesim()
        doc["engines"]["event"]["faults_per_sec"] = 0
        with pytest.raises(ReportSchemaError, match="positive"):
            validate_report(doc)

    def test_bench_gatesim_missing_engine(self):
        doc = _bench_gatesim()
        del doc["engines"]["reference"]
        with pytest.raises(ReportSchemaError, match="engines"):
            validate_report(doc)

    def test_bench_gatesim_not_identical(self):
        doc = _bench_gatesim()
        doc["identical"] = False
        with pytest.raises(ReportSchemaError, match="diverge"):
            validate_report(doc)

    def test_bench_gatesim_missing_phases(self):
        doc = _bench_gatesim()
        del doc["engines"]["event"]["phases"]
        with pytest.raises(ReportSchemaError, match="phases"):
            validate_report(doc)

    def test_cluster_sweep_fault_accounting(self):
        doc = _cluster_sweep()
        doc["shard_timings"][0]["faults"] = 99
        with pytest.raises(ReportSchemaError, match="shard timings"):
            validate_report(doc)

    def test_cluster_sweep_bad_signature(self):
        doc = _cluster_sweep()
        doc["signature"] = "beef"
        with pytest.raises(ReportSchemaError, match="0x-prefixed"):
            validate_report(doc)

    def test_cluster_sweep_unknown_worker_state(self):
        doc = _cluster_sweep()
        doc["workers"][0]["state"] = "zombie"
        with pytest.raises(ReportSchemaError, match="unknown state"):
            validate_report(doc)


class TestFiles:
    def test_validate_file_and_summary(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(_cluster_sweep()))
        assert validate_report_file(str(path)) == "repro-cluster-sweep/1"
        lines = validate_report_files([str(path)])
        assert lines == [f"{path}: repro-cluster-sweep/1 ok"]

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ReportSchemaError):
            validate_report_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            validate_report_file(str(bad))


class TestCli:
    def test_runs_validate_schema(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(_cluster_sweep()))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(_bench_parallel()))
        rc = main(["runs", "validate", "--schema", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro-cluster-sweep/1 ok" in out
        assert "repro-bench-parallel/1 ok" in out
