"""HTTP-level tests for the evaluation service (real sockets, one
in-process server shared by the module)."""

import json
import socket

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.service.client import ServiceClientError
from repro.telemetry import RequestLogSink, Telemetry


@pytest.fixture(scope="module")
def svc(ctx):
    service = ServiceThread(
        ServiceConfig(port=0, no_cache=True, workers=2, queue_depth=32),
        context=ctx)
    with service:
        service.client().wait_ready(60)
        yield service


@pytest.fixture(scope="module")
def client(svc):
    return svc.client("http-tests")


def raw_request(svc, data: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", svc.port), timeout=30) as s:
        s.sendall(data)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestHealthAndMetrics:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok" and doc["uptime_seconds"] >= 0

    def test_readyz(self, client):
        assert client.readyz()["status"] == "ready"

    def test_metrics_shape(self, client):
        client.run("spectrum", {"generator": "ramp", "width": 8,
                                "points": 2})
        doc = client.metrics()
        svc_doc = doc["service"]
        assert svc_doc["ready"] is True and svc_doc["draining"] is False
        assert svc_doc["queue_capacity"] == 32
        assert svc_doc["jobs_done"] >= 1
        assert "service.requests" in doc["counters"]
        assert "service.request_seconds" in doc["histograms"]

    def test_metrics_json_histograms_carry_buckets(self, client):
        client.run("spectrum", {"generator": "ramp", "width": 8,
                                "points": 2})
        hist = client.metrics()["histograms"]["service.request_seconds"]
        assert hist["count"] >= 1
        assert len(hist["counts"]) == len(hist["edges"]) + 1
        assert {"p50", "p90", "p99"} <= set(hist)

    def test_metrics_prometheus_negotiated(self, client, svc):
        client.run("spectrum", {"generator": "ramp", "width": 8,
                                "points": 2})
        raw = raw_request(
            svc,
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            b"Accept: text/plain\r\nConnection: close\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        header_text = head.decode("ascii")
        assert header_text.startswith("HTTP/1.1 200")
        assert "text/plain; version=0.0.4; charset=utf-8" in header_text
        text = body.decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_service_ready 1" in text
        # No Accept header (the stdlib client) keeps the JSON document.
        raw = raw_request(
            svc,
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"application/json" in head
        assert "service" in json.loads(body.decode("utf-8"))


class TestJobEndpoints:
    def test_submit_poll_result_roundtrip(self, client):
        job = client.submit("spectrum", {"generator": "lfsr1", "width": 8,
                                         "points": 4})
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        assert done["result"]["generator"] == "LFSR-1/8"

    def test_long_poll_returns_finished_job(self, client):
        job = client.submit("rank", {"design": "LP", "vectors": 128})
        doc = client.job(job["id"], wait=30)
        # A single long-poll is enough for a small job.
        assert doc["state"] == "done"
        assert doc["result"]["proposed_scheme"]

    def test_cancel_finished_job_is_ok(self, client):
        job = client.submit("spectrum", {"generator": "ramp", "width": 8,
                                         "points": 2})
        client.wait(job["id"], timeout=60)
        doc = client.cancel(job["id"])
        assert doc["state"] == "done"  # finishing won the race; no 409


class TestErrorPaths:
    def test_unknown_job_404(self, client):
        for call in (client.job, client.cancel):
            with pytest.raises(ServiceClientError) as err:
                call("j-nope-000000")
            assert err.value.status == 404

    def test_unknown_kind_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit("train-model", {})
        assert err.value.status == 400
        assert "rank" in str(err.value)

    def test_unknown_generator_400_lists_choices(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit("spectrum", {"generator": "perlin"})
        assert err.value.status == 400
        assert "lfsr1" in str(err.value)

    def test_out_of_range_vectors_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit("rank", {"vectors": 1 << 30})
        assert err.value.status == 400

    @pytest.mark.parametrize("field", ["priority", "idempotency_key",
                                       "deadline"])
    def test_unknown_submit_field_400(self, svc, field):
        body = json.dumps({"kind": "rank", "params": {}, field: "x"})
        req = (f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(body)}\r\n\r\n{body}").encode()
        head, _, payload = raw_request(svc, req).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert field in json.loads(payload)["error"]

    def test_method_not_allowed(self, svc):
        resp = raw_request(
            svc, b"PUT /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
        assert resp.startswith(b"HTTP/1.1 405")

    def test_unknown_route_404(self, svc):
        resp = raw_request(svc, b"GET /v2/nope HTTP/1.1\r\nHost: x\r\n\r\n")
        assert resp.startswith(b"HTTP/1.1 404")

    def test_malformed_request_line_400(self, svc):
        resp = raw_request(svc, b"NONSENSE\r\n\r\n")
        assert resp.startswith(b"HTTP/1.1 400")

    def test_invalid_json_400(self, svc):
        body = b"{not json"
        req = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert raw_request(svc, req).startswith(b"HTTP/1.1 400")

    def test_non_object_json_400(self, svc):
        body = b"[1, 2]"
        req = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert raw_request(svc, req).startswith(b"HTTP/1.1 400")

    def test_oversized_body_413(self, svc):
        req = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: 9999999\r\n\r\n")
        assert raw_request(svc, req).startswith(b"HTTP/1.1 413")

    def test_negative_content_length_400(self, svc):
        req = (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: -5\r\n\r\n")
        head, _, payload = raw_request(svc, req).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(payload)["error"] == "bad Content-Length"

    def test_bad_wait_param_400(self, svc, client):
        job = client.submit("spectrum", {"generator": "ramp", "width": 8,
                                         "points": 2})
        req = (f"GET /v1/jobs/{job['id']}?wait=soon HTTP/1.1\r\n"
               f"Host: x\r\n\r\n").encode()
        assert raw_request(svc, req).startswith(b"HTTP/1.1 400")
        client.wait(job["id"], timeout=60)


class TestAccessLog:
    def test_requests_logged_as_jsonl(self, ctx, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tel = Telemetry(sinks=[RequestLogSink(path)])
        tel.sinks[0].open()
        service = ServiceThread(
            ServiceConfig(port=0, no_cache=True, workers=1),
            context=ctx, telemetry=tel)
        with service:
            c = service.client("logged-client")
            c.wait_ready(60)
            c.run("spectrum", {"generator": "ramp", "width": 8,
                               "points": 2})
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert records, "no access log records written"
        routes = {r["route"] for r in records}
        assert "/v1/jobs" in routes
        submit = next(r for r in records if r["route"] == "/v1/jobs")
        assert submit["type"] == "request"
        assert submit["method"] == "POST"
        assert submit["status"] == 202
        assert submit["latency_ms"] >= 0
        assert submit["client"] == "logged-client"
        # Only request events land in the access log, never spans.
        assert all(r["type"] == "request" for r in records)
