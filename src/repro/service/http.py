"""Minimal stdlib HTTP/1.1 layer for the evaluation service.

Implemented straight on :func:`asyncio.start_server` streams — no
framework, no dependencies — because the API surface is small and the
hard problems (queueing, shutdown) live elsewhere.  One
request per connection (responses carry ``Connection: close``), bodies
and responses are JSON.

Routes
------
``POST   /v1/jobs``             submit ``{"kind", "params", "client"}``
                                (rank | grade | spectrum | recommend |
                                grade-shard — exact gate-level grading
                                and the cluster coordinator's unit of
                                dispatch, see :mod:`repro.cluster`)
``GET    /v1/jobs/{id}``        poll; ``?wait=SECONDS`` long-polls;
                                a finished job carries ``result`` or
                                ``error``
``DELETE /v1/jobs/{id}``        cancel a queued job
``GET    /v1/events``           server-sent-events stream of job state
                                transitions and live progress snapshots;
                                ``?job=ID`` filters to one job and ends
                                the stream when that job finishes
``GET    /healthz``             liveness (always 200 while the process runs)
``GET    /readyz``              readiness (503 while warming or draining)
``GET    /metrics``             telemetry counters/gauges/histograms; JSON by
                                default, Prometheus text exposition when the
                                ``Accept`` header prefers ``text/plain``
                                (full negotiation: q-values, wildcards,
                                specificity — see
                                :func:`negotiate_media_type`)

Error envelope: ``{"error": "...", "status": N}``; 429/503 responses
carry a ``Retry-After`` header.  Every served request is emitted as a
``request`` telemetry event — the access log when a
:class:`~repro.telemetry.sinks.RequestLogSink` is attached — carrying
``trace_id``/``span_id`` (the request span) and, where the route names
one, ``job_id``, so access-log lines join against Chrome-trace exports
and job ledger records.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError, ServiceError
from ..telemetry import TraceContext, get_telemetry
from .events import sse_frame

__all__ = ["HttpApi", "negotiate_media_type"]

logger = logging.getLogger("repro.service")

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_JOB_PATH = re.compile(r"/v1/jobs/([A-Za-z0-9_.-]+)")

#: (status, payload, extra headers) triple every handler returns.  The
#: payload is normally a JSON-able dict; a plain ``str`` is sent as-is
#: with a text content type (the Prometheus ``/metrics`` exposition).
Reply = Tuple[int, Any, Dict[str, str]]


class _HttpError(ServiceError):
    """Protocol-level failure with a definite status code."""


def negotiate_media_type(accept: str, offers: Tuple[str, ...]
                         ) -> Optional[str]:
    """Pick the best of ``offers`` for an ``Accept`` header value.

    Implements the parts of RFC 7231 §5.3.2 a JSON/text API actually
    needs: comma-separated media ranges, ``q`` weights (params after
    ``q`` are ignored), ``type/*`` and ``*/*`` wildcards, and the rule
    that an offer's quality comes from its *most specific* matching
    range — so ``*/*;q=1, text/plain;q=0.1`` really does demote
    ``text/plain``.  Ties prefer the earlier offer (server preference).
    Returns ``None`` when nothing is acceptable; an empty or
    unparseable header accepts everything (first offer wins).
    """
    ranges = []
    for part in (accept or "").split(","):
        media, _, raw_params = part.partition(";")
        media = media.strip().lower()
        if "/" not in media:
            continue
        mtype, _, msub = media.partition("/")
        q = 1.0
        for param in raw_params.split(";"):
            name, sep, value = param.strip().partition("=")
            if sep and name.strip().lower() == "q":
                try:
                    q = float(value.strip())
                except ValueError:
                    q = 0.0
                break  # everything after q= is an accept-ext
        ranges.append((mtype, msub, max(0.0, min(1.0, q))))
    if not ranges:
        return offers[0] if offers else None
    best: Optional[Tuple[float, int]] = None
    best_offer: Optional[str] = None
    for idx, offer in enumerate(offers):
        otype, _, osub = offer.lower().partition("/")
        match: Optional[Tuple[int, float]] = None  # (specificity, q)
        for mtype, msub, q in ranges:
            if (mtype, msub) == (otype, osub):
                spec = 2
            elif mtype == otype and msub == "*":
                spec = 1
            elif (mtype, msub) == ("*", "*"):
                spec = 0
            else:
                continue
            if match is None or spec > match[0]:
                match = (spec, q)
        if match is None or match[1] <= 0:
            continue
        key = (match[1], -idx)
        if best is None or key > best:
            best, best_offer = key, offer
    return best_offer


def _error_reply(status: int, message: str,
                 retry_after: Optional[float] = None) -> Reply:
    headers: Dict[str, str] = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{max(0.0, retry_after):.0f}" \
            if retry_after >= 1 else "1"
    return status, {"error": message, "status": status}, headers


class HttpApi:
    """Parses requests, routes them into the service, logs each one."""

    def __init__(self, service) -> None:
        self.service = service

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        clock = self.service.store.clock
        t0 = clock()
        method = path = "-"
        client = None
        status = 500
        trace_ctx: Optional[TraceContext] = None
        job_id: Optional[str] = None
        try:
            try:
                method, target, headers, body = await self._read_request(
                    reader)
            except _HttpError as exc:
                status, payload, extra = _error_reply(exc.status, str(exc))
                await self._respond(writer, status, payload, extra)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away mid-request
            split = urlsplit(target)
            path = split.path
            query = parse_qs(split.query)
            client = headers.get("x-repro-client")
            if path == "/v1/events" and method == "GET":
                # Streaming departs from the one-shot request/reply
                # shape (no Content-Length, the response outlives this
                # scope's span), so it is served outside _route.
                status = await self._serve_events(writer, query)
                return
            try:
                # The request span is the root every downstream span —
                # the job's worker-side spans included — hangs under.
                # The per-context span stack makes this safe across
                # concurrently served connections.
                with get_telemetry().span("service.request", route=path,
                                          method=method):
                    # Captured inside the span so the access-log line
                    # carries the ids that join it to the trace export.
                    trace_ctx = TraceContext.current()
                    status, payload, extra = await self._route(
                        method, path, query, headers, body)
                m = _JOB_PATH.fullmatch(path)
                if m is not None:
                    job_id = m.group(1)
                elif path == "/v1/jobs" and isinstance(payload, dict) \
                        and payload.get("id"):
                    job_id = str(payload["id"])
            except ServiceError as exc:
                status, payload, extra = _error_reply(
                    exc.status, str(exc), exc.retry_after)
            except ReproError as exc:
                status, payload, extra = _error_reply(400, str(exc))
            except Exception:
                logger.exception("unhandled error serving %s %s",
                                 method, path)
                status, payload, extra = _error_reply(
                    500, "internal server error")
            await self._respond(writer, status, payload, extra)
        finally:
            writer.close()
            tel = get_telemetry()
            if tel.enabled:
                record: Dict[str, Any] = {
                    "route": path, "method": method, "status": status,
                    "latency_ms": round(1000 * (clock() - t0), 3),
                }
                if client:
                    record["client"] = client
                if trace_ctx is not None:
                    record["trace_id"] = trace_ctx.trace_id
                    if trace_ctx.span_id is not None:
                        record["span_id"] = trace_ctx.span_id
                if job_id is not None:
                    record["job_id"] = job_id
                tel.event("request", **record)
                tel.counter("service.requests").add(1)
                tel.counter(f"service.requests.{status}").add(1)
                tel.histogram("service.request_seconds").observe(
                    max(0.0, clock() - t0))

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError("headers too large", status=413) from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError("headers too large", status=413)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(f"malformed request line {lines[0]!r}",
                             status=400)
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                length = -1
            if length < 0:
                raise _HttpError("bad Content-Length", status=400)
        if length > MAX_BODY_BYTES:
            raise _HttpError("request body too large", status=413)
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _serve_events(self, writer: asyncio.StreamWriter,
                            query: Dict[str, list]) -> int:
        """Stream the event broker to one client as ``text/event-stream``.

        Frames job transitions and progress snapshots as they are
        published; a comment line keeps idle connections alive.  With
        ``?job=ID`` only that job's events pass, a snapshot of the job
        is sent up front, and the stream ends once the job reaches a
        terminal state — so ``repro runs watch`` terminates by itself.
        """
        service = self.service
        job_filter = None
        initial_job = None
        if query.get("job"):
            job_filter = str(query["job"][0])
            initial_job = service.store.get(job_filter)
            if initial_job is None:
                status, payload, extra = _error_reply(
                    404, f"no such job {job_filter!r}")
                await self._respond(writer, status, payload, extra)
                return status
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream; charset=utf-8\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1"))
        queue = service.events.subscribe()
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("service.events.streams").add(1)
        keepalive = max(0.5, service.config.events_keepalive)
        try:
            finished_already = False
            if initial_job is not None:
                writer.write(sse_frame(
                    {"event": "job", "data": initial_job.to_dict()}))
                finished_already = initial_job.state.finished
            await writer.drain()
            if finished_already:
                return 200
            while True:
                try:
                    event = await asyncio.wait_for(queue.get(), keepalive)
                except asyncio.TimeoutError:
                    if service.draining:
                        return 200
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event.get("event") == "shutdown":
                    writer.write(sse_frame(event))
                    await writer.drain()
                    return 200
                data = event.get("data", {})
                if job_filter is not None and data.get("job") != job_filter:
                    continue
                writer.write(sse_frame(event))
                await writer.drain()
                if tel.enabled:
                    tel.counter("service.events.sent").add(1)
                if (job_filter is not None and event.get("event") == "job"
                        and data.get("state") in
                        ("done", "failed", "cancelled")):
                    return 200
        except ConnectionError:
            return 200  # client hung up; normal for a watch stream
        finally:
            service.events.unsubscribe(queue)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       extra: Optional[Dict[str, str]] = None) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}",
                "Connection: close"]
        for name, value in (extra or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + data)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     query: Dict[str, list], headers: Dict[str, str],
                     body: bytes) -> Reply:
        if path == "/healthz":
            return self.service.healthz()
        if path == "/readyz":
            return self.service.readyz()
        if path == "/metrics":
            return self.service.metrics(accept=headers.get("accept", ""))
        if path == "/v1/events":
            # GET is intercepted in handle() (streaming response).
            return _error_reply(405, f"{method} not allowed on {path}")
        if path == "/v1/jobs":
            if method != "POST":
                return _error_reply(405, f"{method} not allowed on {path}")
            return self.service.submit(self._json_body(body), headers)
        m = _JOB_PATH.fullmatch(path)
        if m:
            job_id = m.group(1)
            if method == "GET":
                return await self.service.poll(job_id, query)
            if method == "DELETE":
                return self.service.cancel(job_id)
            return _error_reply(405, f"{method} not allowed on {path}")
        return _error_reply(404, f"no route for {path}")

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(f"invalid JSON body: {exc}",
                             status=400) from None
        if not isinstance(doc, dict):
            raise _HttpError("JSON body must be an object", status=400)
        return doc


def job_reply(job, status: int = 200) -> Reply:
    """A job snapshot as a handler reply (shared by several routes)."""
    return status, job.to_dict(), {}

