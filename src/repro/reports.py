"""Schema validators for the machine-readable report files.

Every ``repro bench``/``cluster`` invocation writes a JSON report
stamped with a ``schema`` tag (``repro-bench-parallel/1``, ...).
CI used to re-assert each report's shape with a per-file inline Python
heredoc; those checks live here now, behind one dispatcher
(:func:`validate_report`) and one CLI entry point
(``repro runs validate --schema FILE...``), so a schema change updates
exactly one place and every consumer of a report file can defend itself
with the same code CI runs.

Validators check *structure and invariants* (fields present, rates
positive, verdicts identical), not threshold policy — thresholds belong
to each command's ``--check`` flag.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List

from .cluster.coordinator import WORKER_STATES
from .errors import ReproError

__all__ = ["REPORT_SCHEMAS", "ReportSchemaError", "validate_report",
           "validate_report_file", "validate_report_files"]


class ReportSchemaError(ReproError):
    """A report file failed schema validation."""


def _require(doc: Dict[str, Any], fields: Iterable[str],
             where: str) -> None:
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ReportSchemaError(
            f"{where}: missing field(s): {', '.join(missing)}")


def _positive(doc: Dict[str, Any], fields: Iterable[str],
              where: str) -> None:
    for field in fields:
        value = doc.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0:
            raise ReportSchemaError(
                f"{where}: {field!r} must be a positive number, "
                f"got {value!r}")


def _check_bench_parallel(doc: Dict[str, Any]) -> None:
    _require(doc, ("serial", "parallel", "speedup", "identical"),
             "bench-parallel report")
    for side in ("serial", "parallel"):
        _positive(doc[side],
                  ("seconds", "vectors_per_sec", "faults_per_sec"),
                  f"bench-parallel report [{side}]")
    if doc["identical"] is not True:
        raise ReportSchemaError(
            "bench-parallel report: parallel results are not "
            "bit-identical to serial")


def _check_bench_gatesim(doc: Dict[str, Any]) -> None:
    where = "bench-gatesim/3 report"
    _require(doc, ("engines", "speedups", "identical"), where)
    engines = doc["engines"]
    expected = {"event", "reference"}
    if set(engines) != expected:
        raise ReportSchemaError(
            f"{where}: engines must be exactly {sorted(expected)}, "
            f"got {sorted(engines)}")
    for name, entry in engines.items():
        _positive(entry, ("seconds", "faults_per_sec"),
                  f"{where} [engines.{name}]")
        phases = entry.get("phases")
        if not isinstance(phases, dict):
            raise ReportSchemaError(
                f"{where}: engines.{name}.phases missing")
        _require(phases, ("compile_seconds", "golden_seconds",
                          "grade_seconds"),
                 f"{where} [engines.{name}.phases]")
        _positive(phases, ("grade_seconds",),
                  f"{where} [engines.{name}.phases]")
    if doc["identical"] is not True:
        raise ReportSchemaError(
            f"{where}: event verdicts diverge from the reference engine")
    _require(doc["speedups"], ("event_vs_reference",),
             f"{where} [speedups]")
    counters = engines["event"].get("counters", {})
    _positive(counters, ("gates.fault_batches",),
              f"{where} [engines.event.counters]")


def _check_cluster_sweep(doc: Dict[str, Any]) -> None:
    _require(doc, ("params", "faults", "detected", "coverage",
                   "signature", "checkpoints", "shards", "workers",
                   "shard_timings"), "cluster-sweep report")
    _positive(doc, ("faults", "shards"), "cluster-sweep report")
    if not isinstance(doc["signature"], str) \
            or not doc["signature"].startswith("0x"):
        raise ReportSchemaError(
            f"cluster-sweep report: signature must be a 0x-prefixed hex "
            f"string, got {doc['signature']!r}")
    if not 0.0 <= doc["coverage"] <= 1.0:
        raise ReportSchemaError(
            f"cluster-sweep report: coverage {doc['coverage']!r} outside "
            f"[0, 1]")
    if not doc["checkpoints"]:
        raise ReportSchemaError(
            "cluster-sweep report: no coverage checkpoints")
    for point in doc["checkpoints"]:
        _require(point, ("vectors", "coverage"),
                 "cluster-sweep report [checkpoints]")
    if not doc["workers"]:
        raise ReportSchemaError("cluster-sweep report: no workers")
    for worker in doc["workers"]:
        _require(worker, ("endpoint", "state", "shards", "faults",
                          "busy_seconds", "failures"),
                 "cluster-sweep report [workers]")
        if worker["state"] not in WORKER_STATES:
            raise ReportSchemaError(
                f"cluster-sweep report: endpoint {worker['endpoint']!r} "
                f"has unknown state {worker['state']!r}")
    shard_faults = sum(t["faults"] for t in doc["shard_timings"])
    if shard_faults != doc["faults"]:
        raise ReportSchemaError(
            f"cluster-sweep report: shard timings cover {shard_faults} "
            f"faults, report claims {doc['faults']}")


#: schema tag -> structural validator.
REPORT_SCHEMAS: Dict[str, Callable[[Dict[str, Any]], None]] = {
    "repro-bench-parallel/1": _check_bench_parallel,
    "repro-bench-gatesim/3": _check_bench_gatesim,
    "repro-cluster-sweep/1": _check_cluster_sweep,
}


def validate_report(doc: Any) -> str:
    """Validate one report document; returns its schema tag."""
    if not isinstance(doc, dict):
        raise ReportSchemaError(
            f"report must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    checker = REPORT_SCHEMAS.get(schema)
    if checker is None:
        known = ", ".join(sorted(REPORT_SCHEMAS))
        raise ReportSchemaError(
            f"unknown report schema {schema!r}; known schemas: {known}")
    checker(doc)
    return str(schema)


def validate_report_file(path: str) -> str:
    """Load and validate one report file; returns its schema tag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReportSchemaError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReportSchemaError(f"{path}: not valid JSON: {exc}") from None
    try:
        return validate_report(doc)
    except ReportSchemaError as exc:
        raise ReportSchemaError(f"{path}: {exc}") from None


def validate_report_files(paths: Iterable[str]) -> List[str]:
    """Validate many files; returns ``"path: schema"`` summary lines."""
    return [f"{path}: {validate_report_file(path)} ok" for path in paths]
