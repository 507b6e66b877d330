"""Content-addressed artifact store.

Entries are ``.npz`` documents at ``<root>/<kind>/<hash>.npz``, where
``hash`` is the :func:`~repro.cache.keys.stable_hash` of the key
payload.  Writes land in a same-directory temp file and are published
with an atomic ``os.replace``, so a reader never sees a torn entry; a
hit refreshes the entry's mtime, and after every store the
least-recently-used entries are evicted until the store fits its size
cap.

The store recovers from corrupted or truncated entries by evicting
them.  Hit/miss/store/eviction totals are kept per store instance and
mirrored into the active telemetry collector as ``cache.hit`` /
``cache.miss`` / ``cache.store`` / ``cache.evict`` counters (plus
per-kind variants such as ``cache.hit.coverage``), so a warm-run
assertion is one counter read.
"""

from __future__ import annotations

import io
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CacheError
from ..telemetry import get_telemetry
from .keys import code_version, stable_hash

__all__ = ["ArtifactCache", "CacheStats", "default_cache_dir",
           "safe_component"]

logger = logging.getLogger(__name__)

#: Default size cap: 2 GiB holds hundreds of full-grid coverage runs.
DEFAULT_MAX_BYTES = 2 << 30

#: Key under which the JSON metadata document rides inside each npz.
_META = "__meta__"

#: Characters allowed in kinds and keys — everything the pipeline emits
#: (hex hashes, short kind names); rejects path traversal outright.
_SAFE = frozenset("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def safe_component(name: str) -> str:
    """Validate one path component of an artifact address."""
    if not name or name in (".", "..") or not set(name) <= _SAFE:
        raise CacheError(f"unsafe artifact path component {name!r}")
    return name


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or a per-user cache directory."""
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
        Directory holding the store (created on first write); defaults
        to :func:`default_cache_dir`.
    max_bytes:
        Total-size cap enforced after every store; ``None`` disables
        eviction.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        spec = str(root) if root is not None else default_cache_dir()
        if "://" in spec:
            raise CacheError(
                f"cache root {spec!r} is a URL, not a directory; the "
                "HTTP artifact store was removed")
        self.root = os.path.abspath(spec)
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
        return os.path.join(self.root, safe_component(kind),
                            f"{safe_component(key)}.npz")

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, kind: str, payload: Dict[str, Any]
             ) -> Optional[Dict[str, Any]]:
        """Fetch the arrays stored for ``payload``, or ``None`` on miss.

        A corrupted or unreadable entry counts as a miss; the broken
        entry is removed so the slot can be rebuilt cleanly.
        """
        tel = get_telemetry()
        with tel.span("cache.load", kind=kind) as span:
            out = self._load(tel, kind, self.key(kind, payload))
            span.set(hit=out is not None)
        return out

    def _load(self, tel, kind: str, key: str) -> Optional[Dict[str, Any]]:
        path = self.entry_path(kind, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self._count(tel, kind, "miss")
            return None
        except OSError as exc:  # unreadable entry: treat as a miss
            logger.warning("cache: unreadable entry %s (%s)", path, exc)
            self._count(tel, kind, "miss")
            return None
        _touch(path)
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                out = self._decode(npz)
        except Exception as exc:  # truncated/corrupted/foreign entry
            logger.warning("cache: evicting corrupted entry %s/%s (%s)",
                           kind, key, exc)
            _remove(path)
            self.stats.bump(kind, "recovered")
            self._count(tel, kind, "miss")
            return None
        self._count(tel, kind, "hit")
        return out

    def store(self, kind: str, payload: Dict[str, Any],
              arrays: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
              ) -> str:
        """Write an entry atomically; returns its path.

        ``arrays`` maps names to numpy arrays (scalars are promoted);
        ``meta`` is an optional JSON document stored alongside them.
        """
        for name in arrays:
            if name == _META:
                raise CacheError(f"array name {name!r} is reserved")
        with get_telemetry().span("cache.store", kind=kind):
            path = self._store(kind, self.key(kind, payload), arrays, meta)
        return path

    def _store(self, kind: str, key: str, arrays: Dict[str, Any],
               meta: Optional[Dict[str, Any]]) -> str:
        encoded = {k: np.asarray(v) for k, v in arrays.items()}
        encoded[_META] = np.frombuffer(
            json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8)
        buf = io.BytesIO()
        np.savez_compressed(buf, **encoded)
        path = self.entry_path(kind, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=f".{key[:12]}-",
                                   dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            _remove(tmp)
            raise
        self._count(get_telemetry(), kind, "store")
        self.evict()
        return path

    # ------------------------------------------------------------------
    # Eviction and maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, float, int]]:
        """All ``(path, mtime, size)`` entries, oldest first."""
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

    def total_bytes(self) -> int:
        return sum(size for _path, _mtime, size in self.entries())

    def evict(self) -> int:
        """Drop least-recently-used entries until under the size cap."""
        if self.max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(size for _path, _mtime, size in entries)
        removed = 0
        tel = get_telemetry()
        for path, _mtime, size in entries:
            if total <= self.max_bytes:
                break
            _remove(path)
            total -= size
            removed += 1
            self._count(tel, os.path.basename(os.path.dirname(path)),
                        "evict")
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        entries = self.entries()
        for path, _mtime, _size in entries:
            _remove(path)
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
    _EVENT_STAT = {"hit": "hits", "miss": "misses",
                   "store": "stores", "evict": "evictions"}

    def _count(self, tel, kind: str, event: str) -> None:
        self.stats.bump(kind, self._EVENT_STAT[event])
        if tel.enabled:
            base = self._EVENT_COUNTER[event]
            tel.counter(base).add(1)
            tel.counter(f"{base}.{kind}").add(1)


def _touch(path: str) -> None:
    try:
        os.utime(path, None)
    except OSError:  # pragma: no cover - fs without utime permission
        pass


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:  # pragma: no cover - already gone / racing writer
        pass
