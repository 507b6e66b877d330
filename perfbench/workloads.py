"""The benchmark's two workloads.

Each workload imports what it needs when constructed and sets itself
up, cold, with :meth:`setup` (both count as set-up), then runs timed
passes with :meth:`run_pass`.  A pass returns a
:class:`PassOutcome`; its output is checked against the seed values in
``expected.json`` and every mismatch counts as a failed operation.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import probes

#: Closed-loop client threads of ``service-grade`` (each submits its next
#: shard only after the previous result returned).
SERVICE_CLIENTS = 2

#: Bound on one ``service-grade`` pass; a stuck job fails the pass.
SERVICE_PASS_TIMEOUT = 60.0


@dataclass
class PassOutcome:
    """What one timed pass did, and whether it was right."""

    seconds: float
    attempted: int
    failed: int = 0
    #: Faults graded in the pass (the ``faults_per_s`` numerator).
    faults: int = 0
    #: Client-observed job latencies; an in-process pass is one job.
    job_seconds: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Workload-specific per-layer values (service job documents).
    layers: Dict[str, float] = field(default_factory=dict)

    def fail_all(self, note: str) -> None:
        self.failed = self.attempted
        self.notes.append(note)


def clear_design_memos() -> None:
    """Drop the process-wide memos of the reference designs, so the next
    design build does the work a fresh process does."""
    from repro.filters import reference

    for build in (reference.lowpass_design, reference.bandpass_design,
                  reference.highpass_design):
        build.cache_clear()


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Workload:
    """Base class: a named workload with a traced-binding set."""

    name = ""
    #: Probe bindings (groups from :mod:`probes`) a traced pass installs;
    #: every one must fire.
    bindings: Sequence[probes.Binding] = ()
    #: Whether a traced pass installs a telemetry collector so the
    #: program's own counters run (the service owns its collector).
    own_telemetry = True
    #: Whether a pass runs on one thread, so the runner moves it round
    #: the CPUs (see ``run.spread_over_cpus``).
    single_threaded = True

    def __init__(self, seed: int, workdir: str, expected: Dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = expected[self.name]

    def setup(self) -> None:
        """Build what every pass needs (timed, cold)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started (untimed)."""

    def reset(self) -> None:
        """Restore a pass's starting state before every pass after the
        run's first (untimed)."""

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper-tables
# ----------------------------------------------------------------------
#: Sessions behind each checked cell: Table 4/5 cells are one
#: 4k-vector session each, Table 6 rows one 8k mixed session each.
_GENERATORS = ("LFSR-1", "LFSR-D", "LFSR-M", "Ramp")
_SESSIONS = ([(d, g) for d in ("LP", "BP", "HP") for g in _GENERATORS]
             + [("LP", "mixed"), ("HP", "mixed")])


class PaperTables(Workload):
    """Tables 1, 3, 4, 5 and 6 from a fresh context and empty cache."""

    name = "paper-tables"
    bindings = probes.DESIGNS + probes.CELL_LEVEL + probes.CACHE

    def __init__(self, seed, workdir, expected) -> None:
        super().__init__(seed, workdir, expected)
        from repro.cache import ArtifactCache
        from repro.experiments import tables
        from repro.experiments.config import ExperimentConfig, ExperimentContext

        self._cache_cls = ArtifactCache
        self._config_cls = ExperimentConfig
        self._context_cls = ExperimentContext
        self._tables = {"table1": tables.table1, "table3": tables.table3,
                        "table4": tables.table4, "table5": tables.table5,
                        "table6": tables.table6}

    def run_pass(self) -> PassOutcome:
        # Every pass builds the designs, as a fresh process does.
        clear_design_memos()
        cache_dir = tempfile.mkdtemp(prefix="tables-", dir=self.workdir)
        rows: Dict[str, list] = {}
        outcome = PassOutcome(seconds=0.0, attempted=len(_SESSIONS))
        t0 = time.perf_counter()
        try:
            ctx = self._context_cls(config=self._config_cls(),
                                    cache=self._cache_cls(cache_dir))
            for key, build in self._tables.items():
                rows[key] = build(ctx).rows
            outcome.seconds = time.perf_counter() - t0
            sizes = {d: ctx.universe(d).fault_count for d in ("LP", "BP", "HP")}
            outcome.faults = sum(sizes[d] for d, _g in _SESSIONS)
        except Exception as exc:  # a raising pass fails every session
            outcome.seconds = time.perf_counter() - t0
            outcome.fail_all(f"pass raised {type(exc).__name__}: {exc}")
            return outcome
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcome.job_seconds = [outcome.seconds]
        self._check(json.loads(json.dumps(rows)), outcome)
        return outcome

    def _check(self, rows: Dict[str, list], outcome: PassOutcome) -> None:
        want = self.expected["tables"]
        for key in ("table1", "table3"):
            if rows[key] != want[key]:
                outcome.fail_all(f"{key} rows {rows[key]} != {want[key]}")
                return
        for key in ("table4", "table5", "table6"):
            if [len(r) for r in rows[key]] != [len(r) for r in want[key]]:
                outcome.fail_all(f"{key} shape differs: {rows[key]}")
                return
        bad = set()
        for key in ("table4", "table5"):
            for got, exp in zip(rows[key], want[key]):
                for g, a, b in zip(_GENERATORS, got[1:], exp[1:]):
                    if a != b:
                        bad.add((got[0], g))
                        outcome.notes.append(f"{key} {got[0]}/{g}: {a} != {b}")
        for got, exp in zip(rows["table6"], want["table6"]):
            if got != exp:
                bad.add((got[0], "mixed"))
                outcome.notes.append(f"table6 {got} != {exp}")
        outcome.failed = len(bad)


# ----------------------------------------------------------------------
# service-grade
# ----------------------------------------------------------------------
class ServiceGrade(Workload):
    """A prefix of LP's exact fault universe as ``grade-shard`` jobs
    through a live service."""

    name = "service-grade"
    bindings = (probes.DESIGNS + probes.CACHE + probes.GATE_LEVEL
                + probes.SHARDED_GRADE)
    own_telemetry = False
    single_threaded = False  # two service workers, two clients

    def __init__(self, seed, workdir, expected) -> None:
        super().__init__(seed, workdir, expected)
        import repro.cluster.shards
        import repro.gates
        from repro.experiments.config import ExperimentConfig, ExperimentContext
        from repro.service.client import ServiceBusy
        from repro.service.lifecycle import ServiceConfig
        from repro.service.testing import ServiceThread

        self._shards = repro.cluster.shards
        self._gates = repro.gates
        self._context_cls = ExperimentContext
        self._config_cls = ExperimentConfig
        self._busy = ServiceBusy
        self._service_config = ServiceConfig
        self._service_cls = ServiceThread
        self.svc = None
        self._cache_dir: Optional[str] = None

    def setup(self) -> None:
        """Client-side shard planning over the universe's first
        ``prefix`` faults (four default-size shards, so a run holds
        several passes), then a fresh service up to ready."""
        want = self.expected
        ctx = self._context_cls(config=self._config_cls())
        design = ctx.designs[want["design"]]
        nl = self._gates.elaborate(design.graph)
        faults = self._gates.enumerate_cell_faults(design.graph, nl)
        self.universe = len(faults)
        self.total = min(want["prefix"], len(faults))
        self.order = self._shards.plan_shards(faults[:self.total])
        random.Random(self.seed).shuffle(self.order)
        self._start_service()

    def _start_service(self) -> None:
        self._cache_dir = tempfile.mkdtemp(prefix="service-",
                                           dir=self.workdir)
        config = self._service_config(port=0, cache_dir=self._cache_dir,
                                      no_ledger=True)
        self.svc = self._service_cls(config).start()
        self.svc.client("perfbench-ready").wait_ready(timeout=120)

    def teardown(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.svc = None
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None

    def reset(self) -> None:
        """A fresh service and an empty cache, so every pass is cold."""
        self.teardown()
        self._start_service()

    def _params(self, shard) -> Dict:
        want = self.expected
        return {"design": want["design"], "generator": want["generator"],
                "vectors": want["vectors"], "width": want["width"],
                "total": self.total, "indices": list(shard.indices)}

    def _client(self, k: int, queue: List, lock: threading.Lock,
                done: List[Dict]) -> None:
        client = self.svc.client(f"perfbench-{k}",
                                 timeout=SERVICE_PASS_TIMEOUT)
        while True:
            with lock:
                if not queue:
                    return
                shard = queue.pop(0)
            record: Dict = {"shard": shard, "rejected": 0}
            t0 = time.perf_counter()
            try:
                while True:
                    try:
                        job = client.submit("grade-shard", self._params(shard))
                        break
                    except self._busy as exc:  # 429: counted, then retried
                        record["rejected"] += 1
                        time.sleep(min(max(exc.retry_after, 0.05), 5.0))
                record["doc"] = client.wait(job["id"],
                                            timeout=SERVICE_PASS_TIMEOUT)
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - t0
            with lock:
                done.append(record)

    def run_pass(self) -> PassOutcome:
        queue = list(self.order)
        lock = threading.Lock()
        done: List[Dict] = []
        threads = [threading.Thread(target=self._client,
                                    args=(k, queue, lock, done),
                                    name=f"perfbench-client-{k}", daemon=True)
                   for k in range(SERVICE_CLIENTS)]
        outcome = PassOutcome(seconds=0.0, attempted=len(self.order))
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.0, SERVICE_PASS_TIMEOUT
                               - (time.perf_counter() - t0)))
        results, bad = [], 0
        for rec in done:
            doc = rec.get("doc") or {}
            if rec["rejected"] or doc.get("state") != "done":
                bad += 1
                outcome.notes.append(
                    f"shard {rec['shard'].shard_id}: "
                    f"{rec.get('error') or doc.get('error') or doc.get('state')}"
                    f"{' (429)' if rec['rejected'] else ''}")
            if doc.get("state") == "done":
                results.append(dict(doc["result"],
                                    shard=rec["shard"].shard_id))
        merged = None
        try:
            merged = self._shards.merge_shard_results(
                self.total, results, test_length=self.expected["vectors"])
        except Exception as exc:
            outcome.notes.append(f"merge raised {type(exc).__name__}: {exc}")
        outcome.seconds = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            outcome.notes.append("client threads still running at timeout")
        outcome.failed = bad + (len(self.order) - len(done))
        outcome.faults = self.total
        outcome.job_seconds = [rec["seconds"] for rec in done]
        outcome.layers = self._service_layers(done, outcome.seconds)
        # The prefix must miss exactly what an in-process exact grade of
        # the whole universe misses below it.
        want = self.expected
        if merged is None:
            outcome.fail_all("no merged result")
        elif (self.universe, sorted(merged.missed_indices),
              merged.signature) != (want["faults"], want["missed_indices"],
                                    want["signature"]):
            outcome.fail_all(
                f"{self.universe} faults, merged {len(merged.missed_indices)}"
                f" missed, signature {merged.signature} != {want['faults']}"
                f" faults, {len(want['missed_indices'])} missed, signature "
                f"{want['signature']}")
        return outcome

    def _service_layers(self, done: List[Dict],
                        pass_seconds: float) -> Dict[str, float]:
        docs = [(rec["seconds"], rec.get("doc") or {}) for rec in done]
        queued = [d.get("queued_seconds", 0.0) for _s, d in docs]
        running = [d.get("running_seconds", 0.0) for _s, d in docs]
        client = [s - q - r for (s, _d), q, r in zip(docs, queued, running)]
        workers = self.svc.config.workers if self.svc is not None else 1
        return {
            "service.queued_s": _median(queued),
            "service.running_s": _median(running),
            "service.client_s": _median(client),
            "service.busy_frac": sum(running) / (workers * pass_seconds),
            "service.jobs": float(sum(d.get("state") == "done"
                                      for _s, d in docs)),
            "service.rejected": float(sum(rec["rejected"] for rec in done)),
            "service.failed": float(sum(d.get("state") != "done"
                                        for _s, d in docs)),
        }


WORKLOADS = {w.name: w for w in (PaperTables, ServiceGrade)}
