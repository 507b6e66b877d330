"""Event broker, SSE stream, job progress, and Accept negotiation."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.service import ServiceConfig, ServiceThread, negotiate_media_type
from repro.service.client import ServiceClientError
from repro.service.events import EventBroker, sse_frame

OFFERS = ("application/json", "text/plain")


class TestNegotiateMediaType:
    @pytest.mark.parametrize("accept,expected", [
        ("", "application/json"),                       # absent -> first offer
        ("text/plain", "text/plain"),
        ("application/json", "application/json"),
        ("text/*", "text/plain"),                       # subtype wildcard
        ("*/*", "application/json"),                    # server preference
        ("text/*;q=0.9, */*;q=0.1", "text/plain"),
        ("application/json;q=0.2, text/plain;q=0.9", "text/plain"),
        ("application/json;q=0", None),   # q=0 excludes; text never offered
        ("application/json;q=0, */*", "text/plain"),
        ("text/plain;q=0, application/json;q=0", None),  # nothing acceptable
        ("image/png", None),
        ("image/png, */*;q=0.1", "application/json"),
        # Most-specific match wins per offer: the explicit range demotes
        # text/plain below the wildcard-matched json.
        ("*/*;q=1.0, text/plain;q=0.1", "application/json"),
        ("garbage;;;", "application/json"),             # unparseable -> first
    ])
    def test_table(self, accept, expected):
        assert negotiate_media_type(accept, OFFERS) == expected

    def test_no_offers(self):
        assert negotiate_media_type("*/*", ()) is None


class TestEventBroker:
    def run_loop(self, coro):
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(coro)
        finally:
            loop.close()

    def test_publish_before_bind_is_noop(self):
        broker = EventBroker()
        broker.publish("job", {"id": "x"})  # must not raise
        assert broker.published == 0

    def test_publish_wraps_and_numbers_events(self):
        async def scenario():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            queue = broker.subscribe()
            broker.publish("progress", {"done": 1})
            broker.publish("progress", {"done": 2})
            first = await queue.get()
            second = await queue.get()
            return broker, first, second

        broker, first, second = self.run_loop(scenario())
        assert first["event"] == "progress"
        assert second["seq"] == first["seq"] + 1
        assert first["data"]["done"] == 1
        assert "unix" in first["data"]
        assert broker.published == 2 and broker.dropped == 0

    def test_slow_subscriber_drops_oldest(self):
        async def scenario():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            queue = broker.subscribe(maxsize=2)
            for i in range(5):
                broker.publish("progress", {"done": i})
            kept = [queue.get_nowait()["data"]["done"] for _ in range(2)]
            return broker, kept

        broker, kept = self.run_loop(scenario())
        assert kept == [3, 4]  # newest snapshots survive
        assert broker.dropped == 3

    def test_sse_frame_format(self):
        frame = sse_frame({"event": "job", "seq": 7, "data": {"id": "j"}})
        text = frame.decode("utf-8")
        assert text.startswith("event: job\nid: 7\ndata: ")
        assert text.endswith("\n\n")
        assert json.loads(text.split("data: ", 1)[1]) == {"id": "j"}


@pytest.fixture(scope="module")
def svc(ctx):
    service = ServiceThread(
        ServiceConfig(port=0, no_cache=True, workers=2, queue_depth=32,
                      events_keepalive=0.5),
        context=ctx)
    with service:
        service.client().wait_ready(60)
        yield service


@pytest.fixture(scope="module")
def client(svc):
    return svc.client("events-tests")


class TestLiveProgress:
    def test_grade_shard_job_streams_progress(self, client):
        job = client.submit("grade-shard", {"design": "LP", "vectors": 128,
                                            "indices": list(range(512)),
                                            "total": 512})
        events = list(client.events(job["id"], timeout=30))
        progress = [e["data"] for e in events if e["event"] == "progress"]
        assert progress, "no progress events before the job finished"
        dones = [p["done"] for p in progress]
        assert dones == sorted(dones)  # monotone
        assert all(p["stream"] == "gates.grade" for p in progress)
        assert progress[-1]["done"] == progress[-1]["total"] == 512.0
        states = [e["data"]["state"] for e in events if e["event"] == "job"]
        assert states[-1] == "done"
        # The terminal job document carries the final progress snapshot.
        doc = client.job(job["id"])
        snap = doc["progress"]["gates.grade"]
        assert snap["done"] == 512.0 and snap["fraction"] == 1.0
        assert 0.0 < snap["coverage"] <= 1.0

    def test_finished_job_stream_ends_immediately(self, client):
        job = client.submit("spectrum", {"generator": "ramp", "width": 8,
                                         "points": 2})
        client.wait(job["id"])
        events = list(client.events(job["id"], timeout=10))
        # Snapshot of the terminal state, then the stream closes.
        assert events and events[0]["event"] == "job"
        assert events[0]["data"]["state"] == "done"

    def test_unknown_job_filter_404s(self, client):
        with pytest.raises(ServiceClientError) as exc:
            list(client.events("no-such-job", timeout=5))
        assert exc.value.status == 404

    def test_events_route_is_get_only(self, svc):
        with socket.create_connection(("127.0.0.1", svc.port),
                                      timeout=10) as s:
            s.sendall(b"POST /v1/events HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: 0\r\nConnection: close\r\n\r\n")
            raw = s.recv(65536)
        assert b"405" in raw.split(b"\r\n", 1)[0]

    def test_keepalive_comments_flow_while_idle(self, svc):
        with socket.create_connection(("127.0.0.1", svc.port),
                                      timeout=10) as s:
            s.sendall(b"GET /v1/events HTTP/1.1\r\nHost: x\r\n"
                      b"Accept: text/event-stream\r\n\r\n")
            deadline = time.monotonic() + 5.0
            buf = b""
            while time.monotonic() < deadline and b"\n:" not in buf:
                buf += s.recv(4096)
        assert b"text/event-stream" in buf
        assert b"\n:" in buf  # at least one keepalive comment arrived

    def test_metrics_expose_event_and_ledger_state(self, client):
        job = client.submit("spectrum", {"generator": "ramp", "width": 8,
                                         "points": 2})
        client.wait(job["id"])
        doc = client.metrics()
        events = doc["service"]["events"]
        assert {"subscribers", "published", "dropped"} <= set(events)
        assert events["published"] >= 1
        assert doc["service"]["ledger"]  # isolated dir from conftest


class TestKeepalive:
    def test_client_stream_tolerates_fast_keepalives(self, client):
        # The module service comments after every 0.5 s of silence.
        # Around and between two jobs the parsed stream must surface
        # their job events, complete and in order, and nothing else.
        seen = []

        def watch():
            finished = 0
            for event in client.events(timeout=5, deadline=60):
                seen.append(event)
                if event["event"] == "job" \
                        and event["data"]["state"] == "done":
                    finished += 1
                    if finished == 2:
                        return

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        deadline = time.monotonic() + 30.0
        while not client.metrics()["service"]["events"]["subscribers"]:
            assert time.monotonic() < deadline, "stream never subscribed"
            time.sleep(0.05)
        jobs = []
        for _ in range(2):
            time.sleep(1.5)  # an idle stream: keepalive comments only
            job = client.submit("spectrum", {"generator": "ramp",
                                             "width": 8, "points": 2})
            client.wait(job["id"], timeout=60)
            jobs.append(job["id"])
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        assert [(e["event"], e["data"]["job"], e["data"]["state"])
                for e in seen] == [("job", job_id, state)
                                   for job_id in jobs
                                   for state in ("queued", "running",
                                                 "done")]
