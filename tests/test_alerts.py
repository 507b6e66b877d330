"""Alert rules: parsing, the stateful engine's fire/resolve machine,
and the stateless CI gate."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.alerts import (
    ALERT_RULES_SCHEMA,
    AlertEngine,
    AlertError,
    AlertRule,
    check_rules,
    load_rules,
    parse_rules,
)


def rules_doc(*rules):
    return {"schema": ALERT_RULES_SCHEMA, "rules": list(rules)}


DEAD_RULE = {"name": "dead-workers", "metric": "fleet.workers.dead",
             "op": ">=", "threshold": 1, "severity": "page",
             "description": "a worker stopped heartbeating"}


class TestParse:
    def test_round_trip(self):
        rules = parse_rules(rules_doc(DEAD_RULE))
        assert rules == [AlertRule(
            name="dead-workers", metric="fleet.workers.dead", op=">=",
            threshold=1.0, severity="page",
            description="a worker stopped heartbeating")]
        assert rules[0].describe() == "fleet.workers.dead >= 1"
        assert rules[0].to_doc()["missing"] == "skip"

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(schema="repro-alert-rules/9"), "schema"),
        (lambda d: d.update(rules=[]), "non-empty"),
        (lambda d: d["rules"][0].pop("threshold"), "threshold"),
        (lambda d: d["rules"][0].update(op="=="), "unknown op"),
        (lambda d: d["rules"][0].update(threshold="lots"), "number"),
        (lambda d: d["rules"][0].update(for_beats=0), "for_beats"),
        (lambda d: d["rules"][0].update(severity="meh"), "severity"),
        (lambda d: d["rules"][0].update(missing="explode"), "missing"),
        (lambda d: d["rules"].append(dict(DEAD_RULE)), "duplicate"),
    ])
    def test_rejections(self, mutate, match):
        doc = rules_doc(dict(DEAD_RULE))
        mutate(doc)
        with pytest.raises(AlertError, match=match):
            parse_rules(doc)

    def test_load_rules_prefixes_path(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules_doc(DEAD_RULE)))
        assert len(load_rules(str(path))) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(AlertError, match="bad.json"):
            load_rules(str(bad))
        with pytest.raises(AlertError, match="absent.json"):
            load_rules(str(tmp_path / "absent.json"))


class TestEngine:
    def test_fires_and_resolves(self):
        engine = AlertEngine(parse_rules(rules_doc(DEAD_RULE)))
        assert engine.evaluate({"fleet.workers.dead": 0}, now=1.0) == []
        events = engine.evaluate({"fleet.workers.dead": 1}, now=2.0)
        assert [n for n, _ in events] == ["alert.fired"]
        doc = events[0][1]
        assert doc["alert"] == "dead-workers"
        assert doc["severity"] == "page"
        assert doc["value"] == 1
        assert engine.active()[0]["alert"] == "dead-workers"
        # Still breached: no duplicate fire.
        assert engine.evaluate({"fleet.workers.dead": 2}, now=3.0) == []
        events = engine.evaluate({"fleet.workers.dead": 0}, now=5.0)
        assert [n for n, _ in events] == ["alert.resolved"]
        assert events[0][1]["fired_seconds"] == pytest.approx(3.0)
        assert engine.active() == []

    def test_for_beats_debounces(self):
        rule = dict(DEAD_RULE, name="slow", metric="p99", op=">",
                    threshold=1.0, for_beats=3)
        engine = AlertEngine(parse_rules(rules_doc(rule)))
        assert engine.evaluate({"p99": 2.0}) == []
        assert engine.evaluate({"p99": 2.0}) == []
        # A clean beat resets the consecutive-breach counter.
        assert engine.evaluate({"p99": 0.5}) == []
        assert engine.evaluate({"p99": 2.0}) == []
        assert engine.evaluate({"p99": 2.0}) == []
        events = engine.evaluate({"p99": 2.0})
        assert [n for n, _ in events] == ["alert.fired"]

    def test_missing_metric_policies(self):
        skip = dict(DEAD_RULE, name="skipper", metric="absent")
        fire = dict(DEAD_RULE, name="firer", metric="absent",
                    missing="fire")
        engine = AlertEngine(parse_rules(rules_doc(skip, fire)))
        events = engine.evaluate({})
        assert [d["alert"] for _, d in events] == ["firer"]
        # The skipping rule held state; absence never resolves a firing
        # alert either.
        assert engine.evaluate({}) == []


class TestCheckRules:
    def test_violation_strings(self):
        rules = parse_rules(rules_doc(DEAD_RULE))
        assert check_rules(rules, {"fleet.workers.dead": 0}) == []
        failures = check_rules(rules, {"fleet.workers.dead": 2})
        assert failures == ["dead-workers: fleet.workers.dead >= 1 "
                            "breached (value 2) — a worker stopped "
                            "heartbeating"]

    def test_ignores_for_beats(self):
        rule = dict(DEAD_RULE, for_beats=5)
        failures = check_rules(parse_rules(rules_doc(rule)),
                               {"fleet.workers.dead": 1})
        assert len(failures) == 1

    def test_loadtest_namespace(self):
        from repro.cluster.loadtest import LoadtestReport, _Sample

        report = LoadtestReport(url="http://s:1", concurrency=2,
                                duration_seconds=1.0, elapsed_seconds=1.0)
        report.samples = [_Sample("rank", "ok", 0.1),
                          _Sample("rank", "busy", 0.0)]
        values = report.alert_values()
        assert values["loadtest.completed"] == 1.0
        assert values["loadtest.busy_rate"] == pytest.approx(0.5)
        rule = {"name": "throughput-floor",
                "metric": "loadtest.throughput_jobs_per_second",
                "op": "<", "threshold": 10.0}
        assert check_rules(parse_rules(rules_doc(rule)), values)

    def test_loadtest_values_survive_json_round_trip(self):
        from repro.cluster.loadtest import (LoadtestReport, _Sample,
                                            loadtest_alert_values)

        report = LoadtestReport(url="http://s:1", concurrency=2,
                                duration_seconds=1.0, elapsed_seconds=1.3)
        report.samples = [_Sample("rank", "ok", 0.1),
                          _Sample("grade", "ok", 0.37),
                          _Sample("rank", "busy", 0.0),
                          _Sample("spectrum", "error", 0.2)]
        saved = json.loads(json.dumps(report.to_doc()))
        live = report.alert_values()
        assert len(live) == 10
        assert loadtest_alert_values(saved) == live
        # A field the saved report lacks is left to the rule's policy.
        del saved["busy_rate"]
        assert "loadtest.busy_rate" not in loadtest_alert_values(saved)


class TestCheckSnapshot:
    """``repro alerts check --snapshot`` evaluates the values the
    serve-side engine does, counters and histograms included."""

    RULES = (dict(DEAD_RULE, name="failed-jobs",
                  metric="service.jobs.failed", threshold=1),
             dict(DEAD_RULE, name="slow-requests",
                  metric="service.request_seconds.p99", op=">",
                  threshold=5.0))

    def snapshot(self):
        from repro.telemetry import FleetView, Telemetry, build_heartbeat

        tel = Telemetry()
        tel.counter("service.jobs.failed").add(3)
        for _ in range(10):
            tel.histogram("service.request_seconds").observe(5.9)
        beat = build_heartbeat(tel, worker="w1", seq=1, interval=1.0)
        view = FleetView()
        view.observe(beat, now=beat["unix"])
        return view.snapshot(now=beat["unix"])

    def check(self, tmp_path, snapshot):
        from repro.cli import main

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(rules_doc(*self.RULES)))
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(snapshot))
        return main(["alerts", "check", "--rules", str(rules),
                     "--snapshot", str(path), "--no-ledger"])

    def test_counter_and_histogram_rules_fail_the_check(self, tmp_path,
                                                        capsys):
        assert self.check(tmp_path, self.snapshot()) == 1
        err = capsys.readouterr().err
        assert "failed-jobs: service.jobs.failed >= 1 breached (value 3)" \
            in err
        assert "slow-requests: service.request_seconds.p99 > 5 breached " \
            "(value 5.9)" in err

    def test_snapshot_without_values_is_an_error(self, tmp_path, capsys):
        doc = self.snapshot()
        del doc["values"]
        assert self.check(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "'values'" in err and "alert check ok" not in err
