"""Content-addressed artifact store.

Entries are ``.npz`` documents addressed by ``(kind, hash)`` where
``hash`` is the :func:`~repro.cache.keys.stable_hash` of the key
payload.  *Where the bytes live* is a pluggable
:class:`~repro.cache.backends.StoreBackend`: the default
:class:`~repro.cache.backends.LocalStore` keeps the original on-disk
layout (``<root>/<kind>/<hash>.npz``, atomic ``os.replace`` writes,
LRU size-cap eviction with hit-refreshed mtimes), while
:class:`~repro.cache.backends.HttpStore` shares one artifact server
across a worker fleet — pass an ``http://host:port`` URL where a
directory is expected (``--cache-dir``, ``$REPRO_CACHE_DIR``) and the
cache goes remote with the same keys.

The store recovers from corrupted or truncated entries by evicting
them.  Hit/miss/store/eviction totals are kept per store instance and
mirrored into the active telemetry collector as ``cache.hit`` /
``cache.miss`` / ``cache.store`` / ``cache.evict`` counters (plus
per-kind variants such as ``cache.hit.coverage``); remote backends use
the parallel ``cache.remote_hit`` / ``cache.remote_miss`` /
``cache.remote_store`` family, so a warm-run assertion is one counter
read either way.
"""

from __future__ import annotations

import io
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CacheError
from ..telemetry import get_telemetry
from .backends import HttpStore, LocalStore, StoreBackend
from .keys import code_version, stable_hash

__all__ = ["ArtifactCache", "CacheStats", "default_cache_dir"]

logger = logging.getLogger(__name__)

#: Default size cap: 2 GiB holds hundreds of full-grid coverage runs.
DEFAULT_MAX_BYTES = 2 << 30

#: Key under which the JSON metadata document rides inside each npz.
_META = "__meta__"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or a per-user cache directory.

    The environment value may also be an ``http://`` artifact-server
    URL (see :class:`~repro.cache.backends.HttpStore`).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro")


@dataclass
class CacheStats:
    """Running totals for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    recovered: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def bump(self, kind: str, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        per = self.by_kind.setdefault(kind, {})
        per[event] = per.get(event, 0) + 1


class ArtifactCache:
    """A content-addressed npz store with LRU size-cap eviction.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write), or an
        ``http://host:port`` artifact-server URL for a remote store.
    max_bytes:
        Total-size cap enforced after every store; ``None`` disables
        eviction.  Remote stores enforce their own cap server-side.
    backend:
        Explicit :class:`~repro.cache.backends.StoreBackend`; overrides
        ``root``.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
                 backend: Optional[StoreBackend] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        if backend is None:
            spec = str(root) if root is not None else default_cache_dir()
            if spec.startswith(("http://", "https://")):
                backend = HttpStore(spec)
            else:
                backend = LocalStore(spec)
        self.backend = backend
        self.root = backend.describe()
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key(self, kind: str, payload: Dict[str, Any]) -> str:
        """The content hash addressing ``payload`` under ``kind``."""
        doc = dict(payload)
        doc["__kind__"] = kind
        doc["__code__"] = code_version()
        return stable_hash(doc)

    def entry_path(self, kind: str, key: str) -> str:
        if isinstance(self.backend, LocalStore):
            return self.backend.path(kind, key)
        return f"{self.root}/v1/artifacts/{kind}/{key}"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, kind: str, payload: Dict[str, Any]
             ) -> Optional[Dict[str, Any]]:
        """Fetch the arrays stored for ``payload``, or ``None`` on miss.

        A corrupted or unreadable entry counts as a miss; the broken
        entry is removed so the slot can be rebuilt cleanly.
        """
        key = self.key(kind, payload)
        tel = get_telemetry()
        data = self.backend.get(kind, key)
        if data is None:
            self._count(tel, kind, "miss")
            return None
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                out = self._decode(npz)
        except Exception as exc:  # truncated/corrupted/foreign entry
            logger.warning("cache: evicting corrupted entry %s/%s (%s)",
                           kind, key, exc)
            self.backend.delete(kind, key)
            self.stats.bump(kind, "recovered")
            self._count(tel, kind, "miss")
            return None
        self._count(tel, kind, "hit")
        return out

    def store(self, kind: str, payload: Dict[str, Any],
              arrays: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
              ) -> str:
        """Write an entry atomically; returns its address.

        ``arrays`` maps names to numpy arrays (scalars are promoted);
        ``meta`` is an optional JSON document stored alongside them.
        """
        for name in arrays:
            if name == _META:
                raise CacheError(f"array name {name!r} is reserved")
        key = self.key(kind, payload)
        encoded = {k: np.asarray(v) for k, v in arrays.items()}
        encoded[_META] = np.frombuffer(
            json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8)
        buf = io.BytesIO()
        np.savez_compressed(buf, **encoded)
        self.backend.put(kind, key, buf.getvalue())
        self._count(get_telemetry(), kind, "store")
        self.evict()
        return self.entry_path(kind, key)

    # ------------------------------------------------------------------
    # Eviction and maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, float, int]]:
        """All ``(path, mtime, size)`` entries, oldest first."""
        return self.backend.entries()

    def total_bytes(self) -> int:
        return sum(size for _path, _mtime, size in self.entries())

    def evict(self) -> int:
        """Drop least-recently-used entries until under the size cap."""
        removed = self.backend.evict(self.max_bytes)
        if removed:
            # Backend counted per-kind telemetry; fold into local stats.
            self.stats.evictions += removed
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        entries = self.entries()
        for path, _mtime, _size in entries:
            try:
                os.remove(path)
            except OSError:
                pass
        return len(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _decode(npz) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in npz.files:
            if name == _META:
                raw = bytes(npz[name].tobytes())
                out[_META] = json.loads(raw.decode("utf-8")) if raw else {}
            else:
                out[name] = npz[name]
        out.setdefault(_META, {})
        return out

    _EVENT_COUNTER = {"hit": "cache.hit", "miss": "cache.miss",
                      "store": "cache.store", "evict": "cache.evict"}
    _REMOTE_COUNTER = {"hit": "cache.remote_hit",
                       "miss": "cache.remote_miss",
                       "store": "cache.remote_store",
                       "evict": "cache.remote_evict"}
    _EVENT_STAT = {"hit": "hits", "miss": "misses",
                   "store": "stores", "evict": "evictions"}

    def _count(self, tel, kind: str, event: str) -> None:
        self.stats.bump(kind, self._EVENT_STAT[event])
        if tel.enabled:
            table = (self._REMOTE_COUNTER if self.backend.remote
                     else self._EVENT_COUNTER)
            base = table[event]
            tel.counter(base).add(1)
            tel.counter(f"{base}.{kind}").add(1)
