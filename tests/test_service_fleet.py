"""Fleet health plane over real sockets: the self-observing worker,
pushed heartbeats, liveness decay and alerting, the events_dropped
counter, SSE keepalives, and request-log trace correlation."""

from __future__ import annotations

import json
import time

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.telemetry import RequestLogSink, Telemetry, build_heartbeat
from repro.telemetry.alerts import ALERT_RULES_SCHEMA


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met within %.1fs" % timeout)


def worker_doc(fleet_doc, worker):
    for doc in fleet_doc["workers"]:
        if doc["worker"] == worker:
            return doc
    return None


@pytest.fixture(scope="module")
def rules_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("alerts") / "rules.json"
    path.write_text(json.dumps({
        "schema": ALERT_RULES_SCHEMA,
        "rules": [{"name": "dead-workers",
                   "metric": "fleet.workers.dead",
                   "op": ">=", "threshold": 1, "severity": "page",
                   "description": "a worker stopped heartbeating"}],
    }))
    return str(path)


@pytest.fixture(scope="module")
def svc(ctx, rules_path):
    service = ServiceThread(
        ServiceConfig(port=0, no_cache=True, workers=1,
                      heartbeat_interval=0.2, events_keepalive=0.3,
                      alert_rules=rules_path, worker_id="w-self"),
        context=ctx)
    with service:
        service.client().wait_ready(60)
        yield service


@pytest.fixture(scope="module")
def client(svc):
    return svc.client("fleet-tests")


class TestFleetEndpoint:
    def test_service_observes_itself(self, client):
        # Beats predating warmup carry ready=0; wait for a ready one so
        # the assertion below sees post-warmup state annotations.
        doc = wait_for(
            lambda: (d := client.fleet())["workers"] and
            (w := worker_doc(d, "w-self")) is not None and
            w["extra"]["ready"] == 1 and d)
        assert doc["schema"] == "repro-fleet/1"
        self_doc = worker_doc(doc, "w-self")
        assert self_doc["state"] == "live"
        assert self_doc["pid"] > 0
        assert doc["totals"]["workers"] >= 1

    def test_pushed_heartbeat_joins_then_dies_and_alerts(self, client):
        # A foreign worker beats twice at a 0.2s interval, then goes
        # silent; the server's own beats keep sweeping liveness.
        tel = Telemetry()
        tel.counter("gates.evaluated").add(100)
        for seq in (1, 2):
            ack = client.heartbeat(build_heartbeat(
                tel, worker="w-ghost", seq=seq, interval=0.2,
                queue_depth=0))
            assert ack["ok"] is True and ack["worker"] == "w-ghost"
            time.sleep(0.2)
        assert worker_doc(client.fleet(), "w-ghost")["state"] == "live"
        doc = wait_for(
            lambda: (d := client.fleet()) and
            worker_doc(d, "w-ghost")["state"] == "dead" and d,
            timeout=10.0)
        # Two missed beats at 0.2s: death comes quickly, not minutes.
        assert worker_doc(doc, "w-ghost")["missed_beats"] >= 2.0
        assert doc["totals"]["dead"] >= 1
        # The rule file fires on the merged view and rides the snapshot.
        alerts = wait_for(lambda: client.fleet()["alerts"], timeout=10.0)
        assert any(a["alert"] == "dead-workers" and a["severity"] == "page"
                   for a in alerts)

    def test_fleet_and_alert_events_on_the_sse_stream(self, client):
        # Another short-lived worker produces fleet.worker transitions
        # observable on the global stream alongside heartbeats.
        seen = set()
        deadline = time.monotonic() + 10.0
        for event in client.events(timeout=5, deadline=15):
            seen.add(event["event"])
            if event["event"] == "fleet.heartbeat":
                assert "worker" in event["data"]
            if {"fleet.heartbeat", "fleet.worker"} <= seen \
                    or time.monotonic() > deadline:
                break
        assert "fleet.heartbeat" in seen

    def test_metrics_carry_fleet_and_drop_counters(self, svc, client):
        doc = wait_for(lambda: client.fleet()["workers"] and
                       client.metrics())
        # SSE overflow is a first-class counter from startup, 0 included.
        assert doc["counters"].get("service.events_dropped", 0) >= 0
        assert "service.events_dropped" in doc["counters"]
        assert doc["service"]["events"]["dropped"] >= 0
        assert "fleet" in doc["service"]
        assert doc["service"]["fleet"]["live"] >= 1
        from test_service_http import raw_request

        raw = raw_request(
            svc,
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            b"Accept: text/plain\r\nConnection: close\r\n\r\n")
        text = raw.partition(b"\r\n\r\n")[2].decode("utf-8")
        assert "repro_service_events_dropped_total" in text
        assert 'repro_fleet_worker_up{worker="w-self"} 1' in text
        assert 'repro_fleet_workers{state="live"}' in text


class TestKeepalive:
    def test_client_stream_tolerates_fast_keepalives(self, client):
        # The module service ships comments every 0.3s; the parsed
        # stream must surface only real events regardless.
        events = []
        for event in client.events(timeout=5, deadline=3):
            events.append(event)
            if len(events) >= 3:
                break
        assert events, "no events decoded between keepalive comments"
        assert all(e["event"] for e in events)


class TestRequestLogCorrelation:
    def test_records_join_spans_and_jobs(self, ctx, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tel = Telemetry(sinks=[RequestLogSink(path)])
        tel.sinks[0].open()
        service = ServiceThread(
            ServiceConfig(port=0, no_cache=True, workers=1,
                          heartbeat_interval=0.0),
            context=ctx, telemetry=tel)
        with service:
            c = service.client("corr-client")
            c.wait_ready(60)
            job = c.submit("spectrum", {"generator": "ramp", "width": 8,
                                        "points": 2})
            c.wait(job["id"], timeout=60)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert records
        # Every request line carries the serving span's identity so it
        # joins against Chrome-trace exports of the same run.
        assert all(r["trace_id"] for r in records)
        assert all(r["span_id"] for r in records)
        submit = next(r for r in records if r["route"] == "/v1/jobs"
                      and r["method"] == "POST")
        assert submit["job_id"] == job["id"]
        polls = [r for r in records
                 if r["route"].startswith("/v1/jobs/")]
        assert any(r.get("job_id") == job["id"] for r in polls)
