"""Blocking HTTP client for the evaluation service (stdlib only).

Used by the test-suite, the CI smoke job and ``examples/``; it is also
the reference for writing clients in other languages — the protocol is
plain HTTP + JSON, one request per connection.

::

    from repro.service.client import ServiceClient

    c = ServiceClient("http://127.0.0.1:8337", client_id="analysis-42")
    job = c.submit("rank", {"design": "BP", "vectors": 2048})
    doc = c.wait(job["id"])           # long-polls until finished
    print(doc["result"]["proposed_scheme"])

Overload (429 queue full, 503 draining) raises :class:`ServiceBusy`
carrying the server's ``Retry-After`` hint; ``retries=`` folds the
backoff loop in.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ReproError

__all__ = ["ServiceBusy", "ServiceClient", "ServiceClientError"]


class ServiceClientError(ReproError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}


class ServiceBusy(ServiceClientError):
    """429/503 — back off for ``retry_after`` seconds and retry."""

    def __init__(self, status: int, message: str,
                 payload: Optional[Dict[str, Any]], retry_after: float):
        super().__init__(status, message, payload)
        self.retry_after = retry_after


class ServiceClient:
    """Minimal synchronous client for one service endpoint.

    ``retries`` opts into transparent 429/503 handling: instead of
    surfacing the first :class:`ServiceBusy` to the caller, each request
    is retried up to that many times, sleeping the server's
    ``Retry-After`` hint grown exponentially per attempt, jittered
    (0.5x-1x, so synchronized clients desynchronize) and capped at
    ``retry_cap`` seconds.  A 429 means the request was *rejected before
    admission*, so retrying a submit is safe.  The default ``retries=0``
    preserves the original raise-on-first-429 contract.
    """

    def __init__(self, base_url: str, *, client_id: str = "anonymous",
                 timeout: float = 60.0, retries: int = 0,
                 retry_cap: float = 10.0):
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ReproError(f"only http:// is supported, got {base_url!r}")
        if retries < 0:
            raise ReproError(f"retries must be >= 0, got {retries}")
        if retry_cap <= 0:
            raise ReproError(f"retry_cap must be positive, got {retry_cap}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.client_id = client_id
        self.timeout = timeout
        self.retries = retries
        self.retry_cap = retry_cap

    def _busy_backoff(self, exc: "ServiceBusy", attempt: int) -> float:
        """Sleep duration before retry ``attempt`` (0-based): the
        server's hint, doubled per attempt, jittered, capped."""
        base = max(exc.retry_after, 0.05) * (2.0 ** attempt)
        return min(base, self.retry_cap) * random.uniform(0.5, 1.0)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload, headers={
                "Content-Type": "application/json",
                "X-Repro-Client": self.client_id,
                "Connection": "close",
            })
            resp = conn.getresponse()
            raw = resp.read()
            headers = {k.lower(): v for k, v in resp.getheaders()}
            doc = json.loads(raw.decode("utf-8")) if raw else {}
            return resp.status, headers, doc
        finally:
            conn.close()

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 ok: Tuple[int, ...] = (200, 202)) -> Dict[str, Any]:
        for attempt in range(self.retries + 1):
            try:
                return self._checked_once(method, path, body, ok)
            except ServiceBusy as exc:
                if attempt >= self.retries:
                    raise
                time.sleep(self._busy_backoff(exc, attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _checked_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      ok: Tuple[int, ...] = (200, 202)) -> Dict[str, Any]:
        status, headers, doc = self._request(method, path, body)
        if status in ok:
            return doc
        message = str(doc.get("error", f"unexpected status {status}"))
        if status in (429, 503):
            try:
                retry_after = float(headers.get("retry-after", 1.0))
            except ValueError:
                retry_after = 1.0
            raise ServiceBusy(status, message, doc, retry_after)
        raise ServiceClientError(status, message, doc)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(self, kind: str,
               params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Submit a job; returns its queued snapshot (202)."""
        return self._checked("POST", "/v1/jobs", {
            "kind": kind, "params": params or {}, "client": self.client_id})

    def job(self, job_id: str,
            wait: Optional[float] = None) -> Dict[str, Any]:
        """Poll a job; ``wait`` long-polls up to that many seconds."""
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._checked("GET", path)

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._checked("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 10.0) -> Dict[str, Any]:
        """Long-poll until the job reaches a terminal state."""
        t0 = time.monotonic()
        while True:
            remaining = timeout - (time.monotonic() - t0)
            if remaining <= 0:
                raise ServiceClientError(
                    408, f"job {job_id} did not finish within {timeout}s")
            doc = self.job(job_id, wait=min(poll, max(remaining, 0.1)))
            if doc.get("state") in ("done", "failed", "cancelled"):
                return doc

    def run(self, kind: str, params: Optional[Dict[str, Any]] = None, *,
            timeout: float = 120.0) -> Dict[str, Any]:
        """Submit + wait + return the result document.

        Raises :class:`ServiceClientError` if the job fails or is
        cancelled.
        """
        job = self.submit(kind, params)
        doc = self.wait(job["id"], timeout=timeout)
        if doc["state"] != "done":
            raise ServiceClientError(
                500, f"job {job['id']} {doc['state']}: "
                     f"{doc.get('error', 'no result')}", doc)
        return doc["result"]

    def events(self, job_id: Optional[str] = None, *,
               timeout: Optional[float] = None,
               deadline: Optional[float] = None):
        """Yield parsed events from the ``GET /v1/events`` SSE stream.

        Each yielded dict is ``{"event": name, "data": {...}}`` (plus
        ``"id"`` when the server numbered the frame).  With ``job_id``
        the server filters to that job and closes the stream when it
        finishes, so iteration simply ends.  ``timeout`` bounds the
        *gap between frames*, not the whole stream — the server's
        keepalive comments reset it — and raises ``TimeoutError`` via
        the underlying socket when exceeded.  ``deadline`` bounds the
        *whole stream* in seconds: iteration raises ``TimeoutError``
        once it expires even while keepalives or events keep arriving
        (the check runs per received line, so a 15s-keepalive stream
        fails within one keepalive interval of the deadline).
        """
        expires = (None if deadline is None
                   else time.monotonic() + max(deadline, 0.0))
        gap = self.timeout if timeout is None else timeout
        if deadline is not None:
            # A dead peer must also fail by the deadline, not just a
            # live-but-stuck one: never wait on the socket past it.
            gap = min(gap, max(deadline, 0.1))
        conn = http.client.HTTPConnection(self.host, self.port, timeout=gap)
        path = "/v1/events"
        if job_id is not None:
            path += f"?job={job_id}"
        try:
            conn.request("GET", path, headers={
                "Accept": "text/event-stream",
                "X-Repro-Client": self.client_id,
            })
            resp = conn.getresponse()
            if resp.status != 200:
                raw = resp.read()
                try:
                    doc = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    doc = {}
                raise ServiceClientError(
                    resp.status, str(doc.get("error", "event stream "
                                             "unavailable")), doc)
            event: Dict[str, Any] = {}
            for raw_line in resp:
                if expires is not None and time.monotonic() >= expires:
                    raise TimeoutError(
                        f"event stream deadline ({deadline:g}s) exceeded")
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if not line:  # blank line = frame boundary
                    if "data" in event:
                        yield event
                    event = {}
                    continue
                if line.startswith(":"):
                    continue  # keepalive comment
                name, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if name == "event":
                    event["event"] = value
                elif name == "id":
                    event["id"] = value
                elif name == "data":
                    try:
                        event["data"] = json.loads(value)
                    except json.JSONDecodeError:
                        event["data"] = value
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        return self._checked("GET", "/readyz")

    def metrics(self) -> Dict[str, Any]:
        return self._checked("GET", "/metrics")

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until ``/readyz`` turns 200 (service warmed up)."""
        t0 = time.monotonic()
        while True:
            try:
                self.readyz()
                return
            except (ServiceBusy, ServiceClientError, OSError):
                if time.monotonic() - t0 > timeout:
                    raise
                time.sleep(0.1)
