"""Bounded FIFO job queue with backpressure.

:class:`JobQueue` is the service's one admission path: jobs leave in the
order they arrived, and a full queue raises :class:`QueueFullError`,
which the HTTP layer maps to 429 + ``Retry-After``.  The hint comes from
the current depth and a service-time EWMA maintained by the workers, so
clients back off roughly as long as the backlog actually needs.

Everything here runs on one event loop; the synchronous mutators
(``put_nowait``, ``cancel``) are called from handlers and workers on
that same loop, so no locks are needed.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque

from ..errors import ServiceError
from .jobs import Job, JobState

__all__ = ["JobQueue", "QueueClosedError", "QueueFullError"]


class QueueFullError(ServiceError):
    """The queue is at capacity — shed load (HTTP 429)."""

    status = 429

    def __init__(self, depth: int, retry_after: float):
        super().__init__(f"queue full ({depth} jobs queued); "
                         f"retry in {retry_after:.1f}s",
                         retry_after=retry_after)
        self.depth = depth


class QueueClosedError(ServiceError):
    """The queue stopped intake (drain) and has no jobs left."""

    status = 503

    def __init__(self) -> None:
        super().__init__("queue closed", retry_after=1.0)


class JobQueue:
    """Bounded FIFO of admitted jobs."""

    def __init__(self, depth: int):
        if depth <= 0:
            raise ServiceError(f"queue depth must be positive, got {depth}")
        self.depth = depth
        self._jobs: Deque[Job] = deque()
        self._closed = False
        self._wakeup = asyncio.Event()
        #: EWMA of per-job service seconds, maintained by the workers;
        #: feeds the Retry-After estimate.
        self.avg_service_seconds = 0.5

    def __len__(self) -> int:
        return len(self._jobs)

    def retry_after(self) -> float:
        """How long a rejected client should wait before retrying.

        The backlog needs roughly ``size * avg_service`` worker-seconds
        to drain; half of that is a reasonable, bounded hint.
        """
        estimate = 0.5 * len(self._jobs) * max(self.avg_service_seconds,
                                               0.01)
        return min(60.0, max(1.0, estimate))

    def observe_service_seconds(self, seconds: float) -> None:
        """Fold one finished job's service time into the EWMA."""
        alpha = 0.2
        self.avg_service_seconds += alpha * (seconds
                                             - self.avg_service_seconds)

    def put_nowait(self, job: Job) -> None:
        """Enqueue or raise (:class:`QueueFullError` on backpressure)."""
        if self._closed:
            raise QueueClosedError()
        if len(self._jobs) >= self.depth:
            raise QueueFullError(len(self._jobs), self.retry_after())
        self._jobs.append(job)
        self._wakeup.set()

    def close(self) -> None:
        """Stop intake.  Getters drain what is queued, then raise
        :class:`QueueClosedError` — the shutdown path."""
        self._closed = True
        self._wakeup.set()

    async def get(self) -> Job:
        """Wait for the oldest queued job.

        Cancelled entries are skipped (belt and braces — :meth:`cancel`
        removes them eagerly).  Raises :class:`QueueClosedError` once
        the queue is closed *and* empty, which is how workers learn the
        drain is complete.
        """
        while True:
            while self._jobs:
                job = self._jobs.popleft()
                if job.state is not JobState.CANCELLED:
                    return job
            if self._closed:
                raise QueueClosedError()
            self._wakeup.clear()
            await self._wakeup.wait()

    def cancel(self, job: Job) -> bool:
        """Remove a queued job (DELETE endpoint); False if not queued."""
        try:
            self._jobs.remove(job)
        except ValueError:
            return False
        return True
