"""What the service keeps of its old fleet plane, over real sockets.

The heartbeat fleet view is gone: there is no ``/v1/fleet`` route and
``/metrics`` carries no fleet section or per-worker series.  The
events_dropped counter and the request-log trace correlation that were
tested beside it stay, and are pinned here."""

from __future__ import annotations

import json

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.telemetry import RequestLogSink, Telemetry
from test_service_http import raw_request


@pytest.fixture(scope="module")
def svc(ctx):
    service = ServiceThread(
        ServiceConfig(port=0, no_cache=True, workers=1), context=ctx)
    with service:
        service.client().wait_ready(60)
        yield service


@pytest.fixture(scope="module")
def client(svc):
    return svc.client("fleet-tests")


class TestFleetEndpoint:
    def test_metrics_carry_fleet_and_drop_counters(self, svc, client):
        doc = client.metrics()
        # SSE overflow is a first-class counter from startup, 0 included.
        assert doc["counters"].get("service.events_dropped", 0) >= 0
        assert "service.events_dropped" in doc["counters"]
        assert doc["service"]["events"]["dropped"] >= 0
        assert "fleet" not in doc["service"]
        raw = raw_request(
            svc,
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            b"Accept: text/plain\r\nConnection: close\r\n\r\n")
        text = raw.partition(b"\r\n\r\n")[2].decode("utf-8")
        # The counter reaches the scrape; no gauge of the same name
        # replaces it.
        assert "repro_service_events_dropped_total" in text
        assert "repro_fleet_" not in text
        raw = raw_request(
            svc,
            b"GET /v1/fleet HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 404 ")


class TestRequestLogCorrelation:
    def test_records_join_spans_and_jobs(self, ctx, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tel = Telemetry(sinks=[RequestLogSink(path)])
        tel.sinks[0].open()
        service = ServiceThread(
            ServiceConfig(port=0, no_cache=True, workers=1),
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
