"""Run ledger: records, content addressing, trend gate, ``repro runs``."""

import json
import os

import pytest

from repro.cli import main
from repro.errors import LedgerError
from repro.ledger import (RUN_KINDS, RunLedger, build_record, metric_value,
                          summarize_telemetry, trend_check, validate_record)
from repro.telemetry import Telemetry


def bench_record(fps, day=0, **over):
    config = {"design": "LP", "vectors": 4096, "faults": 2048}
    config.update(over.pop("config", {}))
    return build_record(
        "bench-gates", config=config,
        created_unix=1753900000.0 + 86400.0 * day,
        bench=dict({"faults_per_sec": float(fps), "speedup": 4.2},
                   **over.pop("bench", {})),
        metrics={"gates.faults_graded": 2048},
        git_sha="b2fb45b98c20cfc89265c3f8e2558d36caddb85c", **over)


def old_alert_record():
    """An ``alert`` record as a service wrote one on a rule firing."""
    return build_record(
        "alert", config={"alert": "dead-workers", "rule": "dead >= 1",
                         "severity": "page"},
        created_unix=1754500000.0,
        extra={"event": "alert.fired", "value": 1.0, "threshold": 1.0,
               "worker_id": "w1"})


class TestRecords:
    def test_build_is_valid_and_content_addressed(self):
        rec = bench_record(100000.0)
        validate_record(rec)  # does not raise
        assert rec["schema"] == "repro-ledger/1"
        assert len(rec["id"]) == 64
        assert rec["config_fingerprint"]
        # Same content -> same id; different content -> different id.
        assert bench_record(100000.0)["id"] == rec["id"]
        assert bench_record(100001.0)["id"] != rec["id"]

    def test_tampered_record_detected(self):
        rec = bench_record(100000.0)
        rec["bench"]["faults_per_sec"] = 999999.0
        with pytest.raises(LedgerError, match="content address"):
            validate_record(rec)

    def test_unknown_kind_rejected(self):
        rec = bench_record(1.0)
        rec["kind"] = "mystery"
        with pytest.raises(LedgerError, match="unknown run kind"):
            validate_record(rec)
        assert "bench-gates" in RUN_KINDS
        # No command writes bench-schedule or alert records any more;
        # ledgers that already hold them must keep validating.
        validate_record(build_record(
            "bench-schedule", config={"design": "LP", "bins": 1024},
            created_unix=1754500000.0,
            bench={"rank_correlation": 0.8367}))
        validate_record(old_alert_record())

    def test_missing_fields_rejected(self):
        with pytest.raises(LedgerError, match="missing required"):
            validate_record({"schema": "repro-ledger/1"})

    def test_metric_value_paths(self):
        rec = bench_record(100000.0,
                           extra={"coverage": 0.93, "identical": True})
        assert metric_value(rec, "faults_per_sec") == 100000.0
        assert metric_value(rec, "bench.faults_per_sec") == 100000.0
        assert metric_value(rec, "metrics.gates.faults_graded") == 2048.0
        assert metric_value(rec, "gates.faults_graded") == 2048.0
        assert metric_value(rec, "coverage") is None  # top-level, not dotted
        assert metric_value(rec, "identical") is None  # bools are not metrics
        assert metric_value(rec, "no.such.metric") is None


class TestLedgerFile:
    def test_append_and_read_back(self, tmp_path):
        led = RunLedger(str(tmp_path / "ledger"))
        rid = led.append(bench_record(100000.0))
        assert len(led) == 1
        assert led.get(rid)["bench"]["faults_per_sec"] == 100000.0
        assert led.records(kind="bench-gates", validate=True)

    def test_append_is_idempotent(self, tmp_path):
        led = RunLedger(str(tmp_path))
        rec = bench_record(100000.0)
        assert led.append(rec) == led.append(dict(rec))
        assert len(led) == 1

    def test_append_parses_each_line_once(self, tmp_path, monkeypatch):
        """An append parses only the lines written since the ledger's
        last read, yet two ledgers on one file never write an id twice."""
        records = [bench_record(1000.0 + i) for i in range(300)]
        led = RunLedger(str(tmp_path))
        parsed = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(1)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        for rec in records:
            led.append(rec)
        assert len(parsed) <= 2 * len(records)
        monkeypatch.undo()

        size = os.path.getsize(led.path)
        other = RunLedger(str(tmp_path))
        assert other.append(records[0]) == records[0]["id"]
        assert os.path.getsize(led.path) == size
        fresh = bench_record(5.0)
        other.append(fresh)
        led.append(fresh)  # written by the other ledger: not again
        assert [r["id"] for r in led.records()].count(fresh["id"]) == 1

    def test_append_rereads_a_shortened_file(self, tmp_path):
        led = RunLedger(str(tmp_path))
        rec = bench_record(100000.0)
        led.append(rec)
        led.append(bench_record(200000.0))
        open(led.path, "w").close()
        led.append(rec)
        assert [r["id"] for r in led.records()] == [rec["id"]]

    def test_validate_flags_corrupt_line(self, tmp_path):
        led = RunLedger(str(tmp_path))
        led.append(bench_record(100000.0))
        rec = json.loads(open(led.path).read())
        rec["bench"]["faults_per_sec"] = 1.0  # edit without re-addressing
        with open(led.path, "w") as fh:
            fh.write(json.dumps(rec) + "\n")
        assert led.records()  # non-validating read still returns it
        with pytest.raises(LedgerError):
            led.records(validate=True)

    def test_summarize_telemetry_counters(self):
        tel = Telemetry(sinks=[])
        tel.counter("gates.faults_graded").add(512)
        summary = summarize_telemetry(tel)
        assert summary["gates.faults_graded"] == 512


class TestTrendCheck:
    def history(self, *fps):
        return [bench_record(v, day=i) for i, v in enumerate(fps)]

    def test_stable_history_passes(self):
        report = trend_check(self.history(101000, 99000, 100500),
                             "faults_per_sec")
        assert report.ok
        assert report.baseline == 100000.0  # median of the two priors
        assert "ok" in report.describe()

    def test_thirty_percent_drop_fails(self):
        report = trend_check(self.history(101000, 99000, 100500, 70000),
                             "faults_per_sec", tolerance=0.2)
        assert not report.ok
        assert "REGRESSION" in report.describe()

    def test_direction_lower_inverts_band(self):
        recs = [bench_record(1.0, day=i, bench={"optimized_seconds": s})
                for i, s in enumerate([10.0, 10.0, 14.0])]
        assert not trend_check(recs, "optimized_seconds", tolerance=0.2,
                               direction="lower").ok
        assert trend_check(recs, "optimized_seconds", tolerance=0.5,
                           direction="lower").ok

    def test_window_is_bounded_by_last(self):
        # Old fast runs outside the window must not drag the median up.
        report = trend_check(self.history(500000, 500000, 100, 100, 100, 95),
                             "faults_per_sec", last=3)
        assert report.window == 3
        assert report.baseline == 100.0
        assert report.ok

    def test_needs_two_usable_records(self):
        with pytest.raises(LedgerError, match="at least 2"):
            trend_check(self.history(100.0), "faults_per_sec")
        with pytest.raises(LedgerError, match="at least 2"):
            trend_check(self.history(100.0, 200.0), "no_such_metric")

    def test_parameter_validation(self):
        recs = self.history(1.0, 2.0)
        with pytest.raises(LedgerError):
            trend_check(recs, "faults_per_sec", direction="sideways")
        with pytest.raises(LedgerError):
            trend_check(recs, "faults_per_sec", tolerance=1.5)
        with pytest.raises(LedgerError):
            trend_check(recs, "faults_per_sec", last=0)


class TestRunsCli:
    """``repro runs`` against a seeded ledger directory."""

    @pytest.fixture()
    def ledger_dir(self, tmp_path):
        led = RunLedger(str(tmp_path / "led"))
        for day, fps in enumerate([101250.0, 104800.0, 99400.0]):
            led.append(bench_record(fps, day=day))
        return led.root

    def test_list_and_show(self, ledger_dir, capsys):
        assert main(["runs", "--ledger-dir", ledger_dir, "list"]) == 0
        out = capsys.readouterr().out
        assert "bench-gates" in out and "faults/s" in out
        rid = out.strip().splitlines()[-1].split()[0]
        assert main(["runs", "--ledger-dir", ledger_dir, "show", rid]) == 0
        assert "config_fingerprint" in capsys.readouterr().out

    def test_old_alert_record_lists_without_headline(self, ledger_dir,
                                                     capsys):
        RunLedger(ledger_dir).append(old_alert_record())
        assert main(["runs", "--ledger-dir", ledger_dir, "list",
                     "--kind", "alert"]) == 0
        line, = capsys.readouterr().out.strip().splitlines()
        assert line.split()[1] == "alert"
        assert line.split()[-1] == "-"

    def test_trend_check_passes_on_stable_history(self, ledger_dir, capsys):
        rc = main(["runs", "--ledger-dir", ledger_dir, "trend",
                   "--metric", "faults_per_sec", "--check"])
        assert rc == 0
        assert "trend ok" in capsys.readouterr().out

    def test_trend_check_fails_on_regression(self, ledger_dir, capsys):
        RunLedger(ledger_dir).append(bench_record(70000.0, day=3))
        rc = main(["runs", "--ledger-dir", ledger_dir, "trend",
                   "--metric", "faults_per_sec", "--check"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_shows_metric_delta(self, ledger_dir, capsys):
        led = RunLedger(ledger_dir)
        a, b = [r["id"] for r in led.tail(2)]
        assert main(["runs", "--ledger-dir", ledger_dir,
                     "compare", a, b]) == 0
        assert "faults_per_sec" in capsys.readouterr().out

    def test_validate_reports_counts(self, ledger_dir, capsys):
        assert main(["runs", "--ledger-dir", ledger_dir, "validate"]) == 0
        assert "3" in capsys.readouterr().out
