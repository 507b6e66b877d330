"""Service assembly, run loop and graceful shutdown.

:class:`EvaluationService` wires the subsystem together — job store,
fair queue, rate limiter, worker pool, HTTP API — around one shared
cache-backed :class:`~repro.experiments.ExperimentContext`, and owns
the lifecycle:

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
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..experiments import ExperimentContext
from ..telemetry import (AlertEngine, FleetView, JsonlSink, Telemetry,
                         TraceContext, build_heartbeat, get_telemetry,
                         load_rules, prometheus_exposition, set_telemetry)
from .events import EventBroker
from .http import HttpApi, _error_reply, job_reply, negotiate_media_type, \
    result_reply
from .jobs import Job, JobState, JobStore
from .queue import FairJobQueue, RateLimiter
from .workers import WorkerPool

__all__ = ["ServiceConfig", "EvaluationService"]

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can turn with flags."""

    host: str = "127.0.0.1"
    port: int = 8337            # 0 = pick an ephemeral port
    workers: int = 2
    queue_depth: int = 64
    result_ttl: float = 600.0
    rate: float = 0.0           # per-client requests/sec; 0 = unlimited
    burst: float = 0.0          # bucket size; 0 = 2x rate
    long_poll_max: float = 30.0
    drain_deadline: float = 20.0
    cache_dir: Optional[str] = None
    no_cache: bool = False
    access_log: Optional[str] = None
    trace_out: Optional[str] = None  # stream telemetry events as JSONL
    ledger_dir: Optional[str] = None  # run-ledger root; None = default dir
    no_ledger: bool = False     # skip run-ledger records entirely
    events_keepalive: float = 15.0  # SSE keepalive comment interval
    heartbeat_interval: float = 2.0  # fleet heartbeat period; 0 = off
    heartbeat_to: Optional[str] = None  # push beats to this serve URL too
    alert_rules: Optional[str] = None   # JSON rule file for the alerter
    worker_id: Optional[str] = None     # fleet identity; default host:port


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
        self.queue = FairJobQueue(cfg.queue_depth)
        self.limiter = RateLimiter(cfg.rate, cfg.burst or None)
        self.events = EventBroker()
        self.pool = WorkerPool(self.queue, self.store, self.context,
                               workers=cfg.workers, events=self.events)
        self.pool.on_finished = self._record_finished
        self.ledger = None
        self._git_sha: Optional[str] = None
        # Fleet health plane: this process beats into its own view (so
        # a single node is already observable) and, when heartbeat_to
        # names an upstream serve, pushes the same beats there for the
        # aggregated fleet picture.  Alert rules load eagerly so a bad
        # rule file fails startup, not the first evaluation.
        interval = cfg.heartbeat_interval
        self.fleet = FleetView(
            default_interval=interval if interval > 0 else 2.0)
        self.alerts = AlertEngine(
            load_rules(cfg.alert_rules) if cfg.alert_rules else [])
        self._hb_seq = 0
        self._hb_task: Optional["asyncio.Task"] = None
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
        self._trace_sink: Optional[JsonlSink] = None
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
        if self.config.trace_out:
            # Opened eagerly so an unwritable path fails startup, not
            # the first request.
            self._trace_sink = JsonlSink(self.config.trace_out)
            self._trace_sink.open()
            active = self.telemetry if self.telemetry is not None \
                else get_telemetry()
            active.sinks.append(self._trace_sink)
        self._loop = asyncio.get_running_loop()
        self.events.bind(self._loop)
        active = self.telemetry if self.telemetry is not None \
            else get_telemetry()
        if active.enabled:
            # Satellite of the fleet plane: SSE queue overflow becomes
            # a real counter on /metrics instead of a silent field.
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
        if self.config.heartbeat_interval > 0:
            self._hb_task = loop.create_task(self._heartbeat_loop(),
                                             name="repro-heartbeat")
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
        if self._hb_task is not None:
            self._hb_task.cancel()
            self._hb_task = None
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
        tel = get_telemetry()
        tel.flush()
        if self._owns_telemetry:
            set_telemetry(self._previous_telemetry)
            assert self.telemetry is not None
            self.telemetry.close()
        elif self._trace_sink is not None:
            # The collector was adopted from the caller: detach and
            # close only the sink this service attached.
            if isinstance(tel, Telemetry) and self._trace_sink in tel.sinks:
                tel.sinks.remove(self._trace_sink)
            self._trace_sink.close()
        self._trace_sink = None
        self.pool.executor.shutdown(wait=False)
        summary = {
            "done": self.pool.jobs_done,
            "failed": self.pool.jobs_failed,
            "coalesced": self.pool.jobs_coalesced,
            "clean": int(drained),
        }
        logger.info("drain %s: %d done, %d failed (%d coalesced)",
                    "complete" if drained else "ABORTED",
                    summary["done"], summary["failed"],
                    summary["coalesced"])
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
        client = str(body.get("client")
                     or headers.get("x-repro-client") or "anonymous")
        idem = body.get("idempotency_key")
        if idem is not None:
            idem = str(idem)
        kind = str(body.get("kind", ""))
        priority = str(body.get("priority", "normal"))
        params = body.get("params")
        if params is not None and not isinstance(params, dict):
            raise ServiceError("'params' must be an object", status=400)
        self.limiter.check(client)
        job, created = self.store.create(
            kind, params, client=client, priority=priority,
            idempotency_key=idem)
        if not created:
            return job_reply(job, 200, cache="hit")
        # Captured inside the request span, so the worker's spans merge
        # back under the request that submitted the job.
        job.trace = TraceContext.current()
        try:
            self.queue.put_nowait(job)
        except ServiceError:
            # Never retain a job that was refused admission — a retained
            # cancelled job would poison idempotent retries.
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
                                    "state": job.state.value,
                                    "coalesced": False})
        return job_reply(job, 202, cache="miss")

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
            wait = max(0.0, min(wait, self.config.long_poll_max))
        if wait > 0 and not job.state.finished:
            try:
                await asyncio.wait_for(job.done.wait(), wait)
            except asyncio.TimeoutError:
                pass
        return job_reply(job, 200)

    def result(self, job_id: str):
        job = self.store.get(job_id)
        if job is None:
            return _error_reply(404, f"no such job {job_id!r}")
        return result_reply(job)

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
                                     "client": job.client,
                                     "coalesced": job.coalesced}
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

    # ------------------------------------------------------------------
    # Fleet health plane
    # ------------------------------------------------------------------
    @property
    def worker_id(self) -> str:
        """This process's fleet identity (stable across beats)."""
        if self.config.worker_id:
            return self.config.worker_id
        if self.host is not None and self.port is not None:
            return f"{self.host}:{self.port}"
        return f"pid-{os.getpid()}"

    async def _heartbeat_loop(self) -> None:
        """Beat every interval until the service starts draining."""
        interval = self.config.heartbeat_interval
        loop = asyncio.get_running_loop()
        while not self.draining:
            try:
                beat = self._build_beat()
                self.ingest_heartbeat(beat)
                if self.config.heartbeat_to:
                    # Push on the default executor: a slow or absent
                    # upstream must not stall the event loop or occupy
                    # a job-worker thread.
                    await loop.run_in_executor(
                        None, self._push_beat, beat)
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception:
                logger.exception("heartbeat failed; will retry")
            await asyncio.sleep(interval)

    def _build_beat(self) -> Dict[str, Any]:
        tel = self.telemetry if self.telemetry is not None \
            else get_telemetry()
        self._hb_seq += 1
        return build_heartbeat(
            tel, worker=self.worker_id, seq=self._hb_seq,
            interval=self.config.heartbeat_interval,
            queue_depth=len(self.queue),
            inflight=self.pool.inflight_jobs(),
            started_unix=self.started_unix,
            extra={"ready": int(self.ready),
                   "events_dropped": self.events.dropped})

    def _push_beat(self, beat: Dict[str, Any]) -> None:
        from .client import ServiceClient, ServiceClientError

        try:
            ServiceClient(self.config.heartbeat_to,
                          client_id=self.worker_id,
                          timeout=max(1.0,
                                      self.config.heartbeat_interval)
                          ).heartbeat(beat)
        except (ServiceClientError, OSError) as exc:
            tel = get_telemetry()
            if tel.enabled:
                tel.counter("service.heartbeat_push_errors").add(1)
            logger.debug("heartbeat push to %s failed: %s",
                         self.config.heartbeat_to, exc)

    def ingest_heartbeat(self, beat: Dict[str, Any]) -> Dict[str, Any]:
        """Merge one beat (local or POSTed), publish fleet/alert events.

        Runs on the event loop.  Every beat also sweeps liveness and
        re-evaluates the alert rules, so a worker going quiet is
        detected as long as *anyone* still beats.
        """
        self._sweep_and_alert(self.fleet.observe(beat), always=True)
        return {"ok": True, "worker": str(beat.get("worker")),
                "workers": len(self.fleet.workers)}

    def _sweep_and_alert(self, transitions: List[Tuple[str, Dict[str, Any]]],
                         always: bool) -> None:
        """Sweep liveness, publish the fleet transitions, then evaluate
        the alert rules and publish and ledger-record their transitions.

        The rules are evaluated on every beat (``always``), otherwise
        only when the sweep changed a worker's state: each evaluation
        counts toward a rule's ``for_beats``, and polling an unchanged
        fleet is not a beat.
        """
        swept = self.fleet.sweep()
        for name, data in transitions + swept:
            self.events.publish(name, data)
            if name == "fleet.worker":
                logger.info("fleet: worker %s is %s (%s)",
                            data.get("worker"), data.get("state"),
                            data.get("reason"))
        if not (always or swept):
            return
        for name, data in self.alerts.evaluate(self.fleet.merged_values()):
            self.events.publish(name, data)
            log = logger.warning if name == "alert.fired" else logger.info
            log("%s: %s (%s; value %s)", name, data.get("alert"),
                data.get("rule"), data.get("value"))
            self._record_alert(name, data)

    def _record_alert(self, event_name: str, data: Dict[str, Any]) -> None:
        """One best-effort ledger record per alert transition."""
        if self.ledger is None:
            return
        try:
            from ..ledger import build_record

            self.ledger.append(build_record(
                "alert",
                config={"alert": data.get("alert"),
                        "rule": data.get("rule"),
                        "severity": data.get("severity")},
                created_unix=time.time(),
                git_sha=self._git_sha,
                extra={"event": event_name,
                       "value": data.get("value"),
                       "threshold": data.get("threshold"),
                       "worker_id": self.worker_id,
                       "description": data.get("description")}))
        except Exception:
            logger.exception("run-ledger record failed for %s", event_name)

    def fleet_snapshot(self):
        """The ``GET /v1/fleet`` reply (sweeps liveness first, and
        re-evaluates the alert rules when that changed a worker)."""
        self._sweep_and_alert([], always=False)
        doc = self.fleet.snapshot()
        doc["alerts"] = self.alerts.active()
        doc["worker_id"] = self.worker_id
        return 200, doc, {}

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
            # service-level gauges, in text exposition format.
            events.extend({"type": "gauge", "name": f"service.{name}",
                           "value": value} for name, value in (
                ("uptime_seconds", time.time() - self.started_unix),
                ("ready", int(self.ready)),
                ("draining", int(self.draining)),
                ("queue_depth", len(self.queue)),
                ("inflight", self.pool.inflight),
                ("events_subscribers", self.events.subscribers),
                ("events_published", self.events.published),
                ("events_dropped", self.events.dropped),
            ))
            text = prometheus_exposition(events)
            if self.fleet.workers:
                # Per-worker-labelled fleet series ride the same scrape.
                text += self.fleet.prometheus()
            return 200, text, {}
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
                "jobs_coalesced": self.pool.jobs_coalesced,
                "avg_service_seconds": self.queue.avg_service_seconds,
                "events": {
                    "subscribers": self.events.subscribers,
                    "published": self.events.published,
                    "dropped": self.events.dropped,
                },
                "ledger": None if self.ledger is None else self.ledger.path,
                "fleet": dict(self.fleet.counts(),
                              alerts_firing=len(self.alerts.active())),
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
                 f" {summary.get('failed', 0)} failed,"
                 f" {summary.get('coalesced', 0)} coalesced")
        return summary
