"""Service assembly, run loop and graceful shutdown.

:class:`EvaluationService` wires the subsystem together — job store,
FIFO queue, worker pool, HTTP API — around one shared cache-backed
:class:`~repro.experiments.ExperimentContext`, and owns the lifecycle:

* **start** binds the listener (port 0 = ephemeral), starts the
  workers, and warms the heavyweight artifacts (designs + fault
  universes) on an executor thread; ``/readyz`` turns 200 only once
  warmup lands.
* **shutdown** (SIGTERM / SIGINT / :meth:`request_shutdown`) stops
  intake — submissions get 503 + ``Retry-After`` — lets the workers
  drain everything already admitted, bounded by ``drain_deadline``,
  then flushes telemetry sinks and closes the listener.  Jobs still
  unfinished at the deadline are failed, never silently dropped.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ServiceError
from ..experiments import ExperimentContext
from ..telemetry import (Telemetry, TraceContext, get_telemetry,
                         prometheus_exposition, set_telemetry)
from .events import EventBroker
from .http import HttpApi, _error_reply, job_reply, negotiate_media_type
from .jobs import Job, JobState, JobStore
from .queue import JobQueue
from .workers import WorkerPool

__all__ = ["ServiceConfig", "EvaluationService"]

logger = logging.getLogger("repro.service")

#: Longest ``?wait=`` a job poll may block, in seconds.
LONG_POLL_MAX = 30.0

#: Top-level fields of a ``POST /v1/jobs`` body.
SUBMIT_FIELDS = ("client", "kind", "params")


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can turn with flags."""

    host: str = "127.0.0.1"
    port: int = 8337            # 0 = pick an ephemeral port
    workers: int = 2
    queue_depth: int = 64
    result_ttl: float = 600.0
    drain_deadline: float = 20.0
    cache_dir: Optional[str] = None
    no_cache: bool = False
    ledger_dir: Optional[str] = None  # run-ledger root; None = default dir
    no_ledger: bool = False     # skip run-ledger records entirely
    events_keepalive: float = 15.0  # SSE keepalive comment interval


class EvaluationService:
    """The long-running BIST evaluation server."""

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 context: Optional[ExperimentContext] = None,
                 telemetry: Optional[Telemetry] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.context = context if context is not None \
            else self._build_context(cfg)
        self.telemetry = telemetry
        self.store = JobStore(result_ttl=cfg.result_ttl)
        self.queue = JobQueue(cfg.queue_depth)
        self.events = EventBroker()
        self.pool = WorkerPool(self.queue, self.store, self.context,
                               workers=cfg.workers, events=self.events)
        self.pool.on_finished = self._record_finished
        self.ledger = None
        self._git_sha: Optional[str] = None
        self.api = HttpApi(self)
        self.started_unix = time.time()
        self.ready = False
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional["asyncio.Task"] = None
        self._previous_telemetry = None
        self._owns_telemetry = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    @staticmethod
    def _build_context(cfg: ServiceConfig) -> ExperimentContext:
        cache = None
        if not cfg.no_cache:
            from ..cache import ArtifactCache

            cache = ArtifactCache(cfg.cache_dir)
        return ExperimentContext(cache=cache)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start workers, kick off warmup; returns (host, port)."""
        # The service always runs with a live collector so /metrics has
        # data: use the caller's, else adopt an already-active one
        # (e.g. ``--profile serve``), else own a fresh one.
        if self.telemetry is not None:
            self._previous_telemetry = set_telemetry(self.telemetry)
            self._owns_telemetry = True
        elif not get_telemetry().enabled:
            self.telemetry = Telemetry()
            self._previous_telemetry = set_telemetry(self.telemetry)
            self._owns_telemetry = True
        self._loop = asyncio.get_running_loop()
        self.events.bind(self._loop)
        active = self.telemetry if self.telemetry is not None \
            else get_telemetry()
        if active.enabled:
            # SSE queue overflow is a counter on /metrics from startup,
            # 0 included, so silent drops cannot hide.
            self.events.drop_counter = active.counter(
                "service.events_dropped")
        if not self.config.no_ledger:
            from ..ledger import RunLedger, current_git_sha

            try:
                self.ledger = RunLedger(self.config.ledger_dir)
                self._git_sha = current_git_sha()
            except Exception:
                logger.exception("run ledger unavailable; continuing "
                                 "without run records")
                self.ledger = None
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self.api.handle, self.config.host, self.config.port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self.pool.start()
        loop = asyncio.get_running_loop()
        loop.create_task(self._warmup(loop), name="repro-warmup")
        logger.info("service listening on http://%s:%d", self.host,
                    self.port)
        return self.host, self.port

    async def _warmup(self, loop: asyncio.AbstractEventLoop) -> None:
        def warm() -> None:
            for name in self.context.designs:
                self.context.universe(name)

        try:
            await loop.run_in_executor(self.pool.executor, warm)
        except Exception:
            logger.exception("warmup failed; serving cold")
        self.ready = True
        logger.info("warmup complete; service ready")

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, self.request_shutdown, sig.name)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    def request_shutdown(self, reason: str = "request") -> None:
        """Begin graceful shutdown; idempotent, safe from the loop or a
        signal handler."""
        if self._shutdown_task is not None:
            return
        logger.info("shutdown requested (%s); draining", reason)
        self.draining = True
        self.ready = False
        assert self._loop is not None, "start() first"
        self._shutdown_task = self._loop.create_task(
            self.shutdown(), name="repro-shutdown")

    async def shutdown(self) -> Dict[str, int]:
        """Stop intake, drain with a deadline, flush, close."""
        self.draining = True
        self.ready = False
        # Wake every SSE stream so watchers disconnect promptly instead
        # of waiting out a keepalive interval.
        self.events.publish("shutdown", {"reason": "draining"})
        self.queue.close()
        drained = True
        try:
            await asyncio.wait_for(self.pool.join(),
                                   self.config.drain_deadline)
        except asyncio.TimeoutError:
            drained = False
            logger.warning("drain deadline (%.1fs) exceeded; aborting "
                           "remaining jobs", self.config.drain_deadline)
            await self.pool.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        get_telemetry().flush()
        if self._owns_telemetry:
            set_telemetry(self._previous_telemetry)
            assert self.telemetry is not None
            self.telemetry.close()
        self.pool.executor.shutdown(wait=False)
        summary = {
            "done": self.pool.jobs_done,
            "failed": self.pool.jobs_failed,
            "clean": int(drained),
        }
        logger.info("drain %s: %d done, %d failed",
                    "complete" if drained else "ABORTED",
                    summary["done"], summary["failed"])
        if self._stopped is not None:
            self._stopped.set()
        return summary

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown request finishes draining."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Handlers (called by HttpApi; all run on the event loop)
    # ------------------------------------------------------------------
    def submit(self, body: Dict[str, Any], headers: Dict[str, str]):
        if self.draining:
            return _error_reply(503, "service is draining; "
                                "submissions closed", retry_after=5.0)
        unknown = sorted(set(body) - set(SUBMIT_FIELDS))
        if unknown:
            raise ServiceError(
                f"unknown submit field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(SUBMIT_FIELDS)}", status=400)
        client = str(body.get("client")
                     or headers.get("x-repro-client") or "anonymous")
        kind = str(body.get("kind", ""))
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ServiceError("'params' must be an object", status=400)
        job = self.store.create(kind, params, client=client)
        # Chosen once, so the job document, its ledger record and its
        # spans name one trace: a coordinator's shard hangs under the
        # coordinator's span, any other job under this request span.
        remote = job.params.get("trace")
        job.trace = (TraceContext.current() if remote is None
                     else TraceContext(remote["trace_id"], remote["span_id"]))
        try:
            self.queue.put_nowait(job)
        except ServiceError:
            # Never retain a job that was refused admission.
            self.store.discard(job)
            tel = get_telemetry()
            if tel.enabled:
                tel.counter("service.jobs.rejected").add(1)
            raise
        tel = get_telemetry()
        if tel.enabled:
            tel.counter("service.jobs.submitted").add(1)
            tel.gauge("service.queue_depth").set(len(self.queue))
        self.events.publish("job", {"job": job.id, "kind": job.kind,
                                    "state": job.state.value})
        return job_reply(job, 202)

    async def poll(self, job_id: str, query: Dict[str, list]):
        job = self.store.get(job_id)
        if job is None:
            return _error_reply(404, f"no such job {job_id!r}")
        wait = 0.0
        if "wait" in query:
            try:
                wait = float(query["wait"][0])
            except (TypeError, ValueError, IndexError):
                raise ServiceError("'wait' must be a number",
                                   status=400) from None
            wait = max(0.0, min(wait, LONG_POLL_MAX))
        if wait > 0 and not job.state.finished:
            try:
                await asyncio.wait_for(job.done.wait(), wait)
            except asyncio.TimeoutError:
                pass
        return job_reply(job, 200)

    def cancel(self, job_id: str):
        job = self.store.get(job_id)
        if job is None:
            return _error_reply(404, f"no such job {job_id!r}")
        if job.state.finished:
            return job_reply(job, 200)
        if job.state is JobState.QUEUED and self.queue.cancel(job):
            job.finish(JobState.CANCELLED, self.store.clock(),
                       error="cancelled by client")
            tel = get_telemetry()
            if tel.enabled:
                tel.counter("service.jobs.cancelled").add(1)
            return job_reply(job, 200)
        return _error_reply(409, f"job {job_id!r} is {job.state.value} "
                            "and can no longer be cancelled")

    def _record_finished(self, job: Job) -> None:
        """Pool hook: one run-ledger record per finished job.

        Recording is strictly best-effort — a full disk or unwritable
        ledger must never affect job outcomes or poller responses.
        """
        if self.ledger is None:
            return
        try:
            from ..ledger import build_record

            extra: Dict[str, Any] = {"job_id": job.id,
                                     "state": job.state.value,
                                     "client": job.client}
            if job.error is not None:
                extra["error"] = job.error
            bench = None
            if isinstance(job.result, dict):
                bench = {k: v for k, v in job.result.items()
                         if isinstance(v, (int, float))
                         and not isinstance(v, bool)}
            duration = None
            if job.finished is not None and job.started is not None:
                duration = job.finished - job.started
            self.ledger.append(build_record(
                "service-job",
                config={"kind": job.kind, "params": job.params},
                created_unix=job.finished or self.store.clock(),
                bench=bench or None,
                git_sha=self._git_sha,
                trace_id=None if job.trace is None else job.trace.trace_id,
                duration_seconds=duration,
                extra=extra))
        except Exception:
            logger.exception("run-ledger record failed for job %s", job.id)

    def healthz(self):
        return 200, {"status": "ok",
                     "uptime_seconds": time.time() - self.started_unix}, {}

    def readyz(self):
        if self.draining:
            return _error_reply(503, "draining", retry_after=5.0)
        if not self.ready:
            return _error_reply(503, "warming up", retry_after=1.0)
        return 200, {"status": "ready"}, {}

    def metrics(self, accept: str = ""):
        tel = self.telemetry if self.telemetry is not None \
            else get_telemetry()
        events = [inst.to_event() for inst in tel.metrics().values()]
        # Proper content negotiation (q-values, wildcards, specificity):
        # an unparseable or unmatched Accept falls back to JSON, the
        # historical default, rather than 406ing a monitoring probe.
        chosen = negotiate_media_type(accept,
                                      ("application/json", "text/plain"))
        if chosen == "text/plain":
            # Prometheus scrape: instrument snapshots plus the live
            # service-level gauges, in text exposition format.  Drops
            # are the service.events_dropped counter; a gauge of the
            # same name would replace it.
            events.extend({"type": "gauge", "name": f"service.{name}",
                           "value": value} for name, value in (
                ("uptime_seconds", time.time() - self.started_unix),
                ("ready", int(self.ready)),
                ("draining", int(self.draining)),
                ("queue_depth", len(self.queue)),
                ("inflight", self.pool.inflight),
                ("events_subscribers", self.events.subscribers),
                ("events_published", self.events.published),
            ))
            return 200, prometheus_exposition(events), {}
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for event in sorted(events, key=lambda e: str(e["name"])):
            name = str(event["name"])
            if event["type"] == "counter":
                counters[name] = event["value"]
            elif event["type"] == "gauge":
                gauges[name] = event["value"]
            else:
                histograms[name] = {
                    k: event[k] for k in
                    ("count", "sum", "min", "max", "edges", "counts",
                     "p50", "p90", "p99") if k in event}
        doc = {
            "service": {
                "uptime_seconds": time.time() - self.started_unix,
                "ready": self.ready,
                "draining": self.draining,
                "queue_depth": len(self.queue),
                "queue_capacity": self.queue.depth,
                "inflight": self.pool.inflight,
                "jobs": self.store.counts(),
                "jobs_done": self.pool.jobs_done,
                "jobs_failed": self.pool.jobs_failed,
                "avg_service_seconds": self.queue.avg_service_seconds,
                "events": {
                    "subscribers": self.events.subscribers,
                    "published": self.events.published,
                    "dropped": self.events.dropped,
                },
                "ledger": None if self.ledger is None else self.ledger.path,
            },
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        return 200, doc, {}

    # ------------------------------------------------------------------
    # Blocking entry point (the CLI)
    # ------------------------------------------------------------------
    def run(self, *, announce=print) -> Dict[str, int]:
        """Start, serve until a signal, drain; returns the summary."""
        summary: Dict[str, int] = {}

        async def _main() -> None:
            nonlocal summary
            host, port = await self.start()
            self.install_signal_handlers()
            announce(f"repro service listening on http://{host}:{port}")
            await self.serve_until_shutdown()
            assert self._shutdown_task is not None
            summary = await self._shutdown_task

        asyncio.run(_main())
        self.pool.executor.shutdown(wait=True)
        announce(f"drain {'complete' if summary.get('clean') else 'ABORTED'}:"
                 f" {summary.get('done', 0)} done,"
                 f" {summary.get('failed', 0)} failed")
        return summary
