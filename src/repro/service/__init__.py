"""Async BIST evaluation service: job queue, coalescing, backpressure.

This package wraps the existing library pipeline — spectrum analysis,
generator ranking, fault grading, serious-fault search — behind a
dependency-free HTTP + JSON server (stdlib :mod:`asyncio` only) so
long sweeps can be submitted, queued and polled instead of run
inline:

* :mod:`repro.service.jobs` — the job model: states, priorities,
  idempotency keys, TTL result retention, parameter canonicalization.
* :mod:`repro.service.queue` — bounded fair queue with backpressure
  (429 + ``Retry-After``) and per-client token-bucket rate limiting.
* :mod:`repro.service.workers` — worker pool that runs each job alone
  through :func:`~repro.service.workers.execute_job` and coalesces
  identical requests onto one computation.
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
from .jobs import (JOB_KINDS, PRIORITIES, Job, JobState, JobStore,
                   canonical_params)
from .lifecycle import EvaluationService, ServiceConfig
from .queue import (FairJobQueue, QueueClosedError, QueueFullError,
                    RateLimitedError, RateLimiter, TokenBucket)
from .testing import ServiceThread
from .workers import WorkerPool, execute_job

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "EvaluationService",
    "EventBroker",
    "FairJobQueue",
    "HttpApi",
    "Job",
    "JobState",
    "JobStore",
    "QueueClosedError",
    "QueueFullError",
    "RateLimitedError",
    "RateLimiter",
    "ServiceBusy",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceThread",
    "TokenBucket",
    "WorkerPool",
    "canonical_params",
    "execute_job",
    "negotiate_media_type",
]
