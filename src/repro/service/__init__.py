"""Async BIST evaluation service: job queue, workers, backpressure.

This package wraps the existing library pipeline — spectrum analysis,
generator ranking, fault grading, generator recommendation and exact
gate-level grading, five job kinds — behind a dependency-free HTTP +
JSON server (stdlib :mod:`asyncio` only) so long sweeps can be
submitted, queued and polled instead of run inline:

* :mod:`repro.service.jobs` — the job model: states, TTL result
  retention, parameter canonicalization.
* :mod:`repro.service.queue` — one bounded FIFO queue with
  backpressure (429 + ``Retry-After``).
* :mod:`repro.service.workers` — worker pool that runs each job alone
  through its own :func:`~repro.service.workers.execute_job` call.
* :mod:`repro.service.http` — the thin HTTP/1.1 layer and routes,
  including the ``GET /v1/events`` SSE stream.
* :mod:`repro.service.events` — thread-safe broker fanning job state
  transitions and live progress snapshots out to event subscribers.
* :mod:`repro.service.lifecycle` — assembly, warmup, ``/readyz``,
  graceful SIGTERM drain.
* :mod:`repro.service.client` — blocking stdlib client.
* :mod:`repro.service.testing` — in-process harness for tests.

Start one with ``repro serve --port 8337`` or, in process::

    from repro.service import EvaluationService, ServiceConfig

    EvaluationService(ServiceConfig(port=8337)).run()
"""

from .client import ServiceBusy, ServiceClient, ServiceClientError
from .events import EventBroker
from .http import HttpApi, negotiate_media_type
from .jobs import JOB_KINDS, Job, JobState, JobStore, canonical_params
from .lifecycle import EvaluationService, ServiceConfig
from .queue import JobQueue, QueueClosedError, QueueFullError
from .testing import ServiceThread
from .workers import WorkerPool, execute_job

__all__ = [
    "JOB_KINDS",
    "EvaluationService",
    "EventBroker",
    "HttpApi",
    "Job",
    "JobQueue",
    "JobState",
    "JobStore",
    "QueueClosedError",
    "QueueFullError",
    "ServiceBusy",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceThread",
    "WorkerPool",
    "canonical_params",
    "execute_job",
    "negotiate_media_type",
]
