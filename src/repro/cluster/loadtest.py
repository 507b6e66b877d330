"""Closed-loop load generator for a ``repro serve`` endpoint.

Replays a mix of real job traffic (the same kinds and parameter shapes
the CLI and coordinator submit) from ``concurrency`` closed-loop
clients for a wall-clock ``duration``, then reports turnaround latency
percentiles, throughput, and the 429-busy rate.  ``LoadtestReport.check``
turns the report into a pass/fail gate so CI can assert "the service
under this fleet sustains N jobs/s with p99 under X" instead of
eyeballing numbers.

The generator is *closed-loop*: each client submits, waits for the
terminal state, then immediately submits again.  That measures the
service's sustainable turnaround under a fixed concurrency rather than
an open-loop arrival rate, which is the regime the coordinator's
dispatcher threads actually impose.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError
from ..service.client import ServiceBusy, ServiceClient, ServiceClientError

__all__ = ["DEFAULT_MIX", "LOADTEST_SCHEMA", "LoadtestReport",
           "run_loadtest"]

LOADTEST_SCHEMA = "repro-loadtest/1"

#: Kind -> base parameters for the default traffic mix.  Sizes are kept
#: small so a loadtest probes queueing and dispatch overhead, not raw
#: simulation throughput (the bench commands own that axis).
DEFAULT_MIX: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("spectrum", {"generator": "lfsr1", "width": 12, "points": 32}),
    ("rank", {"design": "LP", "vectors": 256}),
    ("grade", {"design": "LP", "generator": "lfsr1", "vectors": 256,
               "width": 12}),
)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = min(max(math.ceil(q * n / 100.0), 1), n)
    return float(sorted_values[rank - 1])


def _latency_doc(latencies: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    if not ordered:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0,
                "max": 0.0}
    return {
        "p50": _percentile(ordered, 50),
        "p90": _percentile(ordered, 90),
        "p99": _percentile(ordered, 99),
        "mean": float(sum(ordered) / len(ordered)),
        "max": float(ordered[-1]),
    }


@dataclass
class _Sample:
    kind: str
    outcome: str  # "ok" | "busy" | "error"
    latency: float


@dataclass
class LoadtestReport:
    """Aggregated outcome of one :func:`run_loadtest` run."""

    url: str
    concurrency: int
    duration_seconds: float
    elapsed_seconds: float
    samples: List[_Sample] = field(default_factory=list, repr=False)

    @property
    def requests(self) -> int:
        return len(self.samples)

    @property
    def completed(self) -> int:
        return sum(1 for s in self.samples if s.outcome == "ok")

    @property
    def busy(self) -> int:
        return sum(1 for s in self.samples if s.outcome == "busy")

    @property
    def errors(self) -> int:
        return sum(1 for s in self.samples if s.outcome == "error")

    @property
    def busy_rate(self) -> float:
        return self.busy / max(1, self.requests)

    @property
    def error_rate(self) -> float:
        return self.errors / max(1, self.requests)

    @property
    def throughput(self) -> float:
        """Completed jobs per second of wall clock."""
        return self.completed / max(self.elapsed_seconds, 1e-9)

    @property
    def latencies(self) -> List[float]:
        return [s.latency for s in self.samples if s.outcome == "ok"]

    def check(self, *, max_p99: Optional[float] = None,
              min_throughput: Optional[float] = None,
              max_busy_rate: Optional[float] = None,
              max_error_rate: Optional[float] = None,
              min_completed: Optional[int] = None) -> List[str]:
        """Threshold violations, empty when the run passes."""
        failures: List[str] = []
        lat = _latency_doc(self.latencies)
        if max_p99 is not None and lat["p99"] > max_p99:
            failures.append(f"p99 latency {lat['p99']:.3f}s exceeds "
                            f"threshold {max_p99:g}s")
        if min_throughput is not None and self.throughput < min_throughput:
            failures.append(f"throughput {self.throughput:.2f} jobs/s "
                            f"below threshold {min_throughput:g}")
        if max_busy_rate is not None and self.busy_rate > max_busy_rate:
            failures.append(f"429-busy rate {self.busy_rate:.3f} exceeds "
                            f"threshold {max_busy_rate:g}")
        if max_error_rate is not None and self.error_rate > max_error_rate:
            failures.append(f"error rate {self.error_rate:.3f} exceeds "
                            f"threshold {max_error_rate:g}")
        if min_completed is not None and self.completed < min_completed:
            failures.append(f"completed {self.completed} jobs, below "
                            f"threshold {min_completed}")
        return failures

    def to_doc(self) -> Dict[str, Any]:
        by_kind: Dict[str, Dict[str, Any]] = {}
        for sample in self.samples:
            entry = by_kind.setdefault(sample.kind, {
                "requests": 0, "completed": 0, "busy": 0, "errors": 0,
                "_lat": []})
            entry["requests"] += 1
            if sample.outcome == "ok":
                entry["completed"] += 1
                entry["_lat"].append(sample.latency)
            elif sample.outcome == "busy":
                entry["busy"] += 1
            else:
                entry["errors"] += 1
        for entry in by_kind.values():
            entry["latency_seconds"] = _latency_doc(entry.pop("_lat"))
        return {
            "schema": LOADTEST_SCHEMA,
            "url": self.url,
            "concurrency": self.concurrency,
            "duration_seconds": self.duration_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "requests": self.requests,
            "completed": self.completed,
            "busy": self.busy,
            "errors": self.errors,
            "busy_rate": self.busy_rate,
            "error_rate": self.error_rate,
            "throughput_jobs_per_second": self.throughput,
            "latency_seconds": _latency_doc(self.latencies),
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
        }


def _traffic(kinds: Sequence[str],
             mix: Sequence[Tuple[str, Dict[str, Any]]]
             ) -> List[Tuple[str, Dict[str, Any]]]:
    chosen = [(k, dict(p)) for k, p in mix if not kinds or k in kinds]
    if not chosen:
        known = ", ".join(sorted({k for k, _ in mix}))
        raise ClusterError(f"no loadtest traffic matches kinds "
                           f"{list(kinds)!r}; mix offers: {known}")
    return chosen


def _vary(params: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """Perturb sizes so coalescing by cache key cannot fold every
    request into one computation — a loadtest of pure duplicates would
    measure the coalescer, not the evaluation."""
    out = dict(params)
    for knob in ("vectors", "points"):
        if knob in out:
            out[knob] = max(2, int(out[knob]) >> rng.randint(0, 2))
    return out


def run_loadtest(
    url: str,
    *,
    concurrency: int = 4,
    duration: float = 10.0,
    kinds: Sequence[str] = (),
    mix: Sequence[Tuple[str, Dict[str, Any]]] = DEFAULT_MIX,
    seed: int = 0,
    job_timeout: float = 60.0,
    client_factory: Optional[Callable[[str], ServiceClient]] = None,
) -> LoadtestReport:
    """Drive ``concurrency`` closed-loop clients for ``duration`` seconds.

    Each client cycles the traffic ``mix`` (optionally filtered to
    ``kinds``) with deterministically perturbed sizes, measuring full
    submit-to-terminal turnaround.  429/503 rejections count toward the
    busy rate without a latency sample (the client deliberately uses
    ``retries=0``: a loadtest wants to *see* rejections, not paper over
    them); failed jobs and transport errors count as errors.
    """
    if concurrency <= 0:
        raise ClusterError(f"concurrency must be positive, "
                           f"got {concurrency}")
    if duration <= 0:
        raise ClusterError(f"duration must be positive, got {duration}")
    traffic = _traffic(kinds, mix)
    make_client = client_factory or (lambda ep: ServiceClient(
        ep, client_id="loadtest", timeout=max(10.0, job_timeout)))
    samples: List[_Sample] = []
    lock = threading.Lock()
    start = time.monotonic()
    deadline = start + duration

    def _client_loop(worker: int) -> None:
        rng = random.Random((seed << 8) ^ worker)
        client = make_client(url)
        step = worker  # stagger the mix across clients
        while time.monotonic() < deadline:
            kind, base = traffic[step % len(traffic)]
            step += 1
            params = _vary(base, rng)
            t0 = time.monotonic()
            try:
                job = client.submit(kind, params)
                doc = client.wait(job["id"], timeout=job_timeout)
                outcome = "ok" if doc.get("state") == "done" else "error"
            except ServiceBusy:
                outcome = "busy"
            except (ServiceClientError, OSError, TimeoutError):
                outcome = "error"
            sample = _Sample(kind, outcome, time.monotonic() - t0)
            with lock:
                samples.append(sample)
            if outcome == "busy":
                # Closed-loop politeness: a rejected client backs off a
                # beat instead of hammering the admission gate.
                time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))

    threads = [threading.Thread(target=_client_loop, args=(i,),
                                name=f"loadtest-{i}", daemon=True)
               for i in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    return LoadtestReport(url=url, concurrency=concurrency,
                          duration_seconds=duration,
                          elapsed_seconds=elapsed, samples=samples)
