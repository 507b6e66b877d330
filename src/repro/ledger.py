"""The run ledger: an append-only, content-addressed run registry.

Every substantial run — a ``sweep`` grid, a ``bench`` measurement, a
``profile`` session, a finished service job — appends one JSON record
to a shared JSONL file, giving the repo what a single overwritten
``BENCH_*.json`` cannot: *memory across runs*.  A record carries the
run's provenance (config fingerprint, git sha, trace id, timestamp),
its outcome metrics (counters, gauges, histogram summaries, bench
rates) and, for grading runs, coverage-curve checkpoints — the paper's
own habit of tracking detection quality over test length rather than
only the final verdict, made durable.

Records are **content-addressed**: a record's ``id`` is the SHA-256 of
its canonical content (everything except the ``id`` itself), so equal
runs address equal ids, appends are idempotent, and a record can never
be edited in place without changing identity.  The file is only ever
opened for append; one record is one line.

On top of the history sits a **statistical regression gate**
(:func:`trend_check`): instead of comparing a fresh benchmark against
one hard-coded floor, the newest record is compared against the median
of the last *N* prior runs of the same kind with a tolerance band —
robust to one noisy CI machine, sensitive to a real 30% regression.

CLI: the ``repro runs`` family (``list``, ``show``, ``compare``,
``trend``, ``watch``, ``validate``) in :mod:`repro.cli`.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from .cache.keys import stable_hash
from .errors import LedgerError
from .telemetry import get_telemetry

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "TrendReport",
    "build_record",
    "current_git_sha",
    "default_ledger_dir",
    "metric_value",
    "record_id",
    "summarize_telemetry",
    "trend_check",
    "validate_record",
]

#: Schema tag every ledger record carries; bump on incompatible change.
LEDGER_SCHEMA = "repro-ledger/1"

#: File name inside the ledger directory.
LEDGER_FILE = "ledger.jsonl"

#: Run kinds the registry recognizes.  Nothing writes ``bench-schedule``,
#: ``loadtest`` or ``alert`` any more; they stay so ledgers that already
#: hold such records validate.
RUN_KINDS = ("sweep", "bench-parallel", "bench-gates", "bench-schedule",
             "profile", "service-job", "cluster-sweep", "loadtest", "alert")

_REQUIRED_FIELDS = ("schema", "id", "kind", "created_unix", "config",
                    "config_fingerprint")


def default_ledger_dir() -> str:
    """``$REPRO_LEDGER_DIR``, else a per-user state directory."""
    env = os.environ.get("REPRO_LEDGER_DIR", "").strip()
    if env:
        return env
    state_home = os.environ.get("XDG_STATE_HOME",
                                os.path.expanduser("~/.local/state"))
    return os.path.join(state_home, "repro", "ledger")


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The working tree's HEAD sha, or ``None`` outside a git checkout.

    Provenance is best-effort by design: a missing ``git`` binary or a
    tarball checkout must never fail a benchmark run.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def record_id(record: Dict[str, Any]) -> str:
    """The content address of a record: hash of everything but ``id``."""
    body = {k: v for k, v in record.items() if k != "id"}
    return stable_hash(body)


def summarize_telemetry(tel=None) -> Dict[str, Any]:
    """Counter/gauge values + histogram summaries of a collector.

    The compact metric block embedded in run records — full bucket
    arrays stay in traces; the ledger keeps the queryable summary.
    """
    tel = tel if tel is not None else get_telemetry()
    if not getattr(tel, "enabled", False):
        return {}
    out: Dict[str, Any] = {}
    for name, inst in sorted(tel.metrics().items()):
        kind = getattr(inst, "kind", None)
        if kind in ("counter", "gauge"):
            out[name] = inst.value
        elif kind == "histogram" and inst.count:
            out[name] = dict(inst.summary(), count=inst.count,
                             mean=inst.mean)
    return out


def build_record(kind: str, *,
                 config: Dict[str, Any],
                 created_unix: float,
                 metrics: Optional[Dict[str, Any]] = None,
                 bench: Optional[Dict[str, Any]] = None,
                 coverage_curve: Optional[Iterable] = None,
                 git_sha: Optional[str] = None,
                 trace_id: Optional[str] = None,
                 duration_seconds: Optional[float] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble (and content-address) one valid ledger record.

    ``config`` is the run's knob dict; its :func:`stable_hash` becomes
    the ``config_fingerprint``, so "same configuration, different day"
    runs are groupable without comparing nested dicts.  ``bench`` holds
    the headline rates a trend gate reads (``faults_per_sec``, ...);
    ``coverage_curve`` is a list of ``[vectors, coverage]`` checkpoints.
    """
    record: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "created_unix": float(created_unix),
        "config": dict(config),
        "config_fingerprint": stable_hash(dict(config)),
    }
    if git_sha is not None:
        record["git_sha"] = git_sha
    if trace_id is not None:
        record["trace_id"] = trace_id
    if duration_seconds is not None:
        record["duration_seconds"] = float(duration_seconds)
    if metrics:
        record["metrics"] = dict(metrics)
    if bench:
        record["bench"] = dict(bench)
    if coverage_curve is not None:
        record["coverage_curve"] = [[float(a), float(b)]
                                    for a, b in coverage_curve]
    if extra:
        record.update(extra)
    record["id"] = record_id(record)
    validate_record(record)
    return record


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.LedgerError` unless ``record`` is a
    well-formed, correctly addressed ``repro-ledger/1`` record."""
    if not isinstance(record, dict):
        raise LedgerError(f"ledger record must be an object, "
                          f"got {type(record).__name__}")
    missing = [f for f in _REQUIRED_FIELDS if f not in record]
    if missing:
        raise LedgerError(f"ledger record is missing required field(s): "
                          f"{', '.join(missing)}")
    if record["schema"] != LEDGER_SCHEMA:
        raise LedgerError(f"unsupported ledger schema "
                          f"{record['schema']!r}; expected {LEDGER_SCHEMA}")
    if record["kind"] not in RUN_KINDS:
        raise LedgerError(f"unknown run kind {record['kind']!r}; "
                          f"valid kinds: {', '.join(RUN_KINDS)}")
    if not isinstance(record["config"], dict):
        raise LedgerError("ledger record 'config' must be an object")
    if not isinstance(record["created_unix"], (int, float)):
        raise LedgerError("ledger record 'created_unix' must be a number")
    expected = record_id(record)
    if record["id"] != expected:
        raise LedgerError(
            f"ledger record id {str(record['id'])[:12]}... does not match "
            f"its content address {expected[:12]}... — record was edited "
            f"or corrupted")


def metric_value(record: Dict[str, Any], metric: str) -> Optional[float]:
    """Resolve ``metric`` against a record.

    Accepts a dotted path (``bench.faults_per_sec``,
    ``metrics.gates.faults_dropped``) and, for convenience, a bare name
    looked up under ``bench`` then ``metrics``.
    """
    def _resolve(node: Any, parts: List[str]) -> Optional[Any]:
        for i, part in enumerate(parts):
            if not isinstance(node, dict):
                return None
            if part in node:
                node = node[part]
                continue
            # metric names themselves contain dots (gates.faults_graded):
            # try the longest joined suffix as one key.
            joined = ".".join(parts[i:])
            return node.get(joined) if isinstance(node, dict) else None
        return node

    value: Optional[Any] = None
    if "." in metric:
        value = _resolve(record, metric.split("."))
    if value is None:
        for section in ("bench", "metrics"):
            block = record.get(section)
            if isinstance(block, dict) and metric in block:
                value = block[metric]
                break
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


@dataclass
class TrendReport:
    """Verdict of one history-aware regression check."""

    metric: str
    kind: str
    current: float
    baseline: float          # median of the prior window
    window: int              # prior runs the baseline was computed over
    tolerance: float
    direction: str           # "higher" or "lower" is better
    ok: bool

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return math.inf if self.current > 0 else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        arrow = {"higher": ">=", "lower": "<="}[self.direction]
        bound = (self.baseline * (1.0 - self.tolerance)
                 if self.direction == "higher"
                 else self.baseline * (1.0 + self.tolerance))
        verdict = "ok" if self.ok else "REGRESSION"
        return (f"trend {verdict}: {self.metric} = {self.current:,.4g} vs "
                f"median-of-{self.window} baseline {self.baseline:,.4g} "
                f"(need {arrow} {bound:,.4g}, tolerance "
                f"{self.tolerance:.0%})")


def trend_check(records: List[Dict[str, Any]], metric: str, *,
                last: int = 5, tolerance: float = 0.2,
                direction: str = "higher") -> TrendReport:
    """Gate the newest record against the median of its predecessors.

    ``records`` must be in append (chronological) order and all of one
    kind; the newest is the candidate, the up-to-``last`` runs before
    it form the baseline window.  ``direction="higher"`` passes when
    ``current >= median * (1 - tolerance)`` (throughput metrics);
    ``"lower"`` inverts the band (latency metrics).
    """
    if direction not in ("higher", "lower"):
        raise LedgerError(f"direction must be 'higher' or 'lower', "
                          f"got {direction!r}")
    if last < 1:
        raise LedgerError(f"trend window must be >= 1, got {last}")
    if not 0.0 <= tolerance < 1.0:
        raise LedgerError(f"tolerance must be in [0, 1), got {tolerance}")
    usable = [(r, metric_value(r, metric)) for r in records]
    usable = [(r, v) for r, v in usable if v is not None]
    if len(usable) < 2:
        raise LedgerError(
            f"trend needs at least 2 records carrying metric {metric!r}, "
            f"found {len(usable)}")
    current_record, current = usable[-1]
    window = [v for _, v in usable[-1 - last:-1]]
    baseline = statistics.median(window)
    if direction == "higher":
        ok = current >= baseline * (1.0 - tolerance)
    else:
        ok = current <= baseline * (1.0 + tolerance)
    return TrendReport(metric=metric, kind=str(current_record.get("kind")),
                       current=current, baseline=baseline,
                       window=len(window), tolerance=tolerance,
                       direction=direction, ok=ok)


class RunLedger:
    """Append-only JSONL registry of run records under one directory.

    One object is used from one thread; any number of objects, in this
    or other processes, may append to the same file.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root if root else default_ledger_dir())
        #: Ids of the records read so far, and the byte offset of the
        #: file read up to: :meth:`append` parses only the lines past it.
        self._ids: Set[str] = set()
        self._offset = 0

    @property
    def path(self) -> str:
        return os.path.join(self.root, LEDGER_FILE)

    def __len__(self) -> int:
        return len(self.records())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> str:
        """Validate and append one record; returns its id.

        Content addressing makes appends idempotent: a record whose id
        is already present is not written again.  The duplicate check
        parses only the lines appended since this ledger's last read, by
        any writer, so an append costs O(new lines).  The write is a
        single ``write()`` of one ``\\n``-terminated line on a file
        opened in append mode, so concurrent appenders interleave whole
        records.
        """
        validate_record(record)
        rid = str(record["id"])
        self._read_new_ids()
        if rid in self._ids:
            return rid
        os.makedirs(self.root, exist_ok=True)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
        self._ids.add(rid)
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("ledger.records_appended").add(1)
            tel.counter(f"ledger.records.{record['kind']}").add(1)
        return rid

    def _read_new_ids(self) -> None:
        """Index the ids on the complete lines past the read offset.

        A file shorter than the offset was truncated or replaced, and
        is re-read from the start.
        """
        try:
            size = os.path.getsize(self.path)
        except FileNotFoundError:
            size = 0
        if size < self._offset:
            self._ids.clear()
            self._offset = 0
        if size == self._offset:
            return
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        # An unterminated last line waits for its newline.
        complete = chunk[:chunk.rfind(b"\n") + 1]
        for line in complete.splitlines():
            if not line.strip():
                continue
            try:
                self._ids.add(str(json.loads(line).get("id")))
            except (ValueError, AttributeError) as exc:
                raise LedgerError(
                    f"{self.path}: unreadable ledger line: {exc}") from None
        self._offset += len(complete)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, kind: Optional[str] = None,
                validate: bool = False) -> List[Dict[str, Any]]:
        """Every record in append order, optionally one kind only.

        With ``validate=True`` each record is schema-checked and a bad
        line raises (the CI integrity pass); by default unreadable
        lines raise too — an append-only ledger with a corrupt line has
        lost its audit property and should fail loudly.
        """
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{self.path}:{lineno}: unreadable ledger line: "
                        f"{exc}") from None
                if validate:
                    try:
                        validate_record(record)
                    except LedgerError as exc:
                        raise LedgerError(
                            f"{self.path}:{lineno}: {exc}") from None
                if kind is None or record.get("kind") == kind:
                    out.append(record)
        return out

    def get(self, run_id: str) -> Dict[str, Any]:
        """The record whose id starts with ``run_id`` (unique prefix)."""
        matches = [r for r in self.records()
                   if str(r.get("id", "")).startswith(run_id)]
        if not matches:
            raise LedgerError(f"no run {run_id!r} in {self.path}")
        if len(matches) > 1:
            raise LedgerError(
                f"run id prefix {run_id!r} is ambiguous "
                f"({len(matches)} matches); use more characters")
        return matches[0]

    def tail(self, n: int, kind: Optional[str] = None
             ) -> List[Dict[str, Any]]:
        return self.records(kind=kind)[-n:]
