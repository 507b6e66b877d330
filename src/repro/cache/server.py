"""Content-addressed artifact server (``repro artifacts serve``).

A deliberately small stdlib HTTP server that fronts a
:class:`~repro.cache.backends.LocalStore` so a fleet of workers shares
one pool of designs, compiled gate programs and coverage runs.  Because
entries are content-addressed (the key *is* the hash of everything that
determines the artifact), the protocol needs no coordination: a ``PUT``
of an existing key is an idempotent no-op-equivalent overwrite of
identical bytes, concurrent writers cannot conflict, and readers can
never observe a torn entry (the store's atomic-rename discipline).

Routes
------
``GET    /v1/artifacts/{kind}/{key}``   entry bytes (404 on miss)
``HEAD   /v1/artifacts/{kind}/{key}``   existence + size probe
``PUT    /v1/artifacts/{kind}/{key}``   store an entry (201)
``DELETE /v1/artifacts/{kind}/{key}``   drop an entry (204)
``GET    /healthz``                     ``{"status": "ok", ...}``
``GET    /metrics``                     request/byte counters (JSON)

Retention lives server-side: the store's LRU size cap is enforced after
every write, so clients (:class:`~repro.cache.backends.HttpStore`)
never evict.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..errors import CacheError
from .backends import LocalStore

__all__ = ["ArtifactServer"]

logger = logging.getLogger(__name__)

#: Largest accepted entry: a generous ceiling over every artifact kind.
MAX_ARTIFACT_BYTES = 1 << 30

_ARTIFACT_PATH = re.compile(
    r"^/v1/artifacts/([A-Za-z0-9._-]+)/([A-Za-z0-9._-]+)$")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-artifacts/1"
    protocol_version = "HTTP/1.1"

    # The owning ArtifactServer injects these via the server object.
    @property
    def store(self) -> LocalStore:
        return self.server.artifact_store  # type: ignore[attr-defined]

    @property
    def stats(self) -> Dict[str, int]:
        return self.server.artifact_stats  # type: ignore[attr-defined]

    def _bump(self, name: str, n: int = 1) -> None:
        with self.server.artifact_lock:  # type: ignore[attr-defined]
            self.stats[name] = self.stats.get(name, 0) + n

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "application/octet-stream") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD" and body:
            self.wfile.write(body)

    def _reply_json(self, status: int, doc: Dict[str, object]) -> None:
        self._reply(status, json.dumps(doc).encode("utf-8"),
                    content_type="application/json")

    def _entry(self) -> Optional[Tuple[str, str]]:
        match = _ARTIFACT_PATH.match(self.path)
        if match is None:
            return None
        return match.group(1), match.group(2)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            entries = self.store.entries()
            self._reply_json(200, {
                "status": "ok",
                "root": self.store.root,
                "entries": len(entries),
                "bytes": sum(size for _p, _m, size in entries),
            })
            return
        if self.path == "/metrics":
            with self.server.artifact_lock:  # type: ignore[attr-defined]
                doc = dict(self.stats)
            self._reply_json(200, doc)
            return
        entry = self._entry()
        if entry is None:
            self._reply_json(404, {"error": "not found", "status": 404})
            return
        data = self.store.get(*entry)
        if data is None:
            self._bump("artifacts.miss")
            self._reply_json(404, {"error": "no such artifact",
                                   "status": 404})
            return
        self._bump("artifacts.hit")
        self._bump("artifacts.bytes_out", len(data))
        self._reply(200, data)

    def do_HEAD(self) -> None:  # noqa: N802
        entry = self._entry()
        data = self.store.get(*entry) if entry is not None else None
        if data is None:
            self._reply(404)
        else:
            self._reply(200, data)  # body suppressed for HEAD

    def do_PUT(self) -> None:  # noqa: N802
        entry = self._entry()
        if entry is None:
            self._reply_json(404, {"error": "not found", "status": 404})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_ARTIFACT_BYTES:
            self._reply_json(413, {"error": "artifact too large",
                                   "status": 413})
            return
        data = self.rfile.read(length)
        if len(data) != length:
            self._reply_json(400, {"error": "truncated body",
                                   "status": 400})
            return
        self.store.put(*entry, data)
        self.store.evict(self.server.artifact_max_bytes)  # type: ignore[attr-defined]
        self._bump("artifacts.store")
        self._bump("artifacts.bytes_in", len(data))
        self._reply_json(201, {"stored": f"{entry[0]}/{entry[1]}",
                               "bytes": len(data)})

    def do_DELETE(self) -> None:  # noqa: N802
        entry = self._entry()
        if entry is None:
            self._reply_json(404, {"error": "not found", "status": 404})
            return
        self.store.delete(*entry)
        self._bump("artifacts.delete")
        self._reply(204)

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("artifacts: " + fmt, *args)


class ArtifactServer:
    """Owns the HTTP server + store; usable blocking or as a context
    manager running in a background thread (tests, in-process fleets).
    """

    def __init__(self, root: str, *, host: str = "127.0.0.1",
                 port: int = 0, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        self.store = LocalStore(root)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.artifact_store = self.store  # type: ignore[attr-defined]
        self.httpd.artifact_stats = {}  # type: ignore[attr-defined]
        self.httpd.artifact_lock = threading.Lock()  # type: ignore[attr-defined]
        self.httpd.artifact_max_bytes = max_bytes  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def stats(self) -> Dict[str, int]:
        with self.httpd.artifact_lock:  # type: ignore[attr-defined]
            return dict(self.httpd.artifact_stats)  # type: ignore[attr-defined]

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()

    def __enter__(self) -> "ArtifactServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-artifacts", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
