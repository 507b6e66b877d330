"""Pluggable byte-level storage backends for the artifact cache.

:class:`~repro.cache.store.ArtifactCache` owns keys, npz encoding and
hit/miss accounting; *where the encoded bytes live* is a backend:

* :class:`LocalStore` — the original on-disk layout
  (``<root>/<kind>/<hash>.npz``, atomic ``os.replace`` writes, LRU
  size-cap eviction with hit-refreshed mtimes).
* :class:`HttpStore` — a remote content-addressed artifact server
  (``repro artifacts serve``) spoken to over plain HTTP, so a fleet of
  workers shares one pool of designs, compiled gate programs and
  coverage runs under the same keys.  Remote traffic is mirrored into the
  ``cache.remote_bytes_in`` / ``cache.remote_bytes_out`` telemetry
  counters; unreachable servers degrade to a miss (the caller
  recomputes) rather than failing the computation.

Both expose the same four byte-level operations (``get`` / ``put`` /
``delete`` / ``entries``), so anything honouring that contract — an
object store, a database — slots in without touching the cache layer.
"""

from __future__ import annotations

import http.client
import logging
import os
import tempfile
from typing import List, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import CacheError
from ..telemetry import get_telemetry

__all__ = ["HttpStore", "LocalStore", "StoreBackend"]

logger = logging.getLogger(__name__)

#: Characters allowed in kinds and keys — everything the pipeline emits
#: (hex hashes, short kind names); rejects path traversal outright.
_SAFE = frozenset("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def safe_component(name: str) -> str:
    """Validate one path component of an artifact address."""
    if not name or name in (".", "..") or not set(name) <= _SAFE:
        raise CacheError(f"unsafe artifact path component {name!r}")
    return name


class StoreBackend:
    """Byte-level storage contract the cache layer programs against.

    ``remote`` flips the telemetry counter family the cache layer uses
    (``cache.*`` vs ``cache.remote_*``) so local and remote traffic are
    separable on one dashboard.
    """

    remote = False

    def get(self, kind: str, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def put(self, kind: str, key: str, data: bytes) -> None:
        raise NotImplementedError

    def delete(self, kind: str, key: str) -> None:
        raise NotImplementedError

    def entries(self) -> List[Tuple[str, float, int]]:
        """All ``(ref, mtime, size)`` entries, oldest first (may be
        empty for backends that manage retention themselves)."""
        return []

    def evict(self, max_bytes: Optional[int]) -> int:
        """Enforce a size cap, if this backend does retention locally."""
        return 0

    def describe(self) -> str:
        raise NotImplementedError


class LocalStore(StoreBackend):
    """The original on-disk npz layout under one root directory."""

    remote = False

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, safe_component(kind),
                            f"{safe_component(key)}.npz")

    def get(self, kind: str, key: str) -> Optional[bytes]:
        path = self.path(kind, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:  # unreadable entry: treat as a miss
            logger.warning("cache: unreadable entry %s (%s)", path, exc)
            return None
        self._touch(path)
        return data

    def put(self, kind: str, key: str, data: bytes) -> None:
        path = self.path(kind, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=f".{key[:12]}-",
                                   dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            self._remove(tmp)
            raise

    def delete(self, kind: str, key: str) -> None:
        self._remove(self.path(kind, key))

    def entries(self) -> List[Tuple[str, float, int]]:
        found: List[Tuple[str, float, int]] = []
        if not os.path.isdir(self.root):
            return found
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".npz"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                found.append((path, st.st_mtime, st.st_size))
        found.sort(key=lambda e: (e[1], e[0]))
        return found

    def evict(self, max_bytes: Optional[int]) -> int:
        if max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(size for _p, _m, size in entries)
        removed = 0
        tel = get_telemetry()
        for path, _mtime, size in entries:
            if total <= max_bytes:
                break
            self._remove(path)
            total -= size
            removed += 1
            kind = os.path.basename(os.path.dirname(path))
            if tel.enabled:
                tel.counter("cache.evict").add(1)
                tel.counter(f"cache.evict.{kind}").add(1)
        return removed

    def describe(self) -> str:
        return self.root

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - fs without utime permission
            pass

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - already gone / racing writer
            pass


class HttpStore(StoreBackend):
    """Content-addressed artifacts over HTTP (``repro artifacts serve``).

    ``GET /v1/artifacts/{kind}/{key}`` fetches the encoded entry (404 on
    miss), ``PUT`` stores one, ``DELETE`` drops one.  The server owns
    retention (LRU under its own size cap), so the client side never
    evicts.  Every byte moved is counted on ``cache.remote_bytes_in`` /
    ``cache.remote_bytes_out``; transport failures are logged, counted
    on ``cache.remote_error``, and reported as misses so a dead artifact
    server only costs recomputation, never correctness.
    """

    remote = True

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise CacheError(
                f"only http:// artifact stores are supported, "
                f"got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    def _url(self, kind: str, key: str) -> str:
        return f"/v1/artifacts/{safe_component(kind)}/{safe_component(key)}"

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers={
                "Content-Type": "application/octet-stream",
                "Connection": "close",
            })
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _failed(self, op: str, exc: Exception) -> None:
        logger.warning("cache: remote store %s failed (%s: %s)",
                       op, type(exc).__name__, exc)
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("cache.remote_error").add(1)

    def get(self, kind: str, key: str) -> Optional[bytes]:
        try:
            status, data = self._request("GET", self._url(kind, key))
        except OSError as exc:
            self._failed("get", exc)
            return None
        if status != 200:
            return None
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("cache.remote_bytes_in").add(len(data))
        return data

    def put(self, kind: str, key: str, data: bytes) -> None:
        try:
            status, _body = self._request("PUT", self._url(kind, key),
                                          body=data)
        except OSError as exc:
            self._failed("put", exc)
            return
        if status not in (200, 201, 204):
            self._failed("put", CacheError(f"HTTP {status}"))
            return
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("cache.remote_bytes_out").add(len(data))

    def delete(self, kind: str, key: str) -> None:
        try:
            self._request("DELETE", self._url(kind, key))
        except OSError as exc:
            self._failed("delete", exc)

    def describe(self) -> str:
        return f"http://{self.host}:{self.port}"
