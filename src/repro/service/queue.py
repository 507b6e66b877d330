"""Bounded async job queue: backpressure, fairness, rate limiting.

Three cooperating pieces:

* :class:`FairJobQueue` — the global bounded queue.  Internally it is a
  priority ladder (high / normal / low) of per-client FIFO deques with
  round-robin service across clients at each level, so one flooding
  client cannot starve the others; a full queue raises
  :class:`QueueFullError` (the HTTP layer maps it to 429 +
  ``Retry-After``).
* :class:`TokenBucket` / :class:`RateLimiter` — per-client token
  buckets checked at admission; an empty bucket raises
  :class:`RateLimitedError` with the exact refill wait.
* The ``Retry-After`` hint itself — derived from the queue's current
  depth and a service-time EWMA maintained by the workers, so clients
  back off roughly as long as the backlog actually needs.

Everything here runs on one event loop; the synchronous mutators
(``put_nowait``, ``cancel``) are called from handlers and workers on
that same loop, so no locks are needed.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional

from ..errors import ServiceError
from .jobs import Job, JobState

__all__ = ["FairJobQueue", "QueueClosedError", "QueueFullError",
           "RateLimitedError", "RateLimiter", "TokenBucket"]


class QueueFullError(ServiceError):
    """The queue is at capacity — shed load (HTTP 429)."""

    status = 429

    def __init__(self, depth: int, retry_after: float):
        super().__init__(f"queue full ({depth} jobs queued); "
                         f"retry in {retry_after:.1f}s",
                         retry_after=retry_after)
        self.depth = depth


class RateLimitedError(ServiceError):
    """The client exhausted its token bucket (HTTP 429)."""

    status = 429

    def __init__(self, client: str, retry_after: float):
        super().__init__(f"client {client!r} is rate limited; "
                         f"retry in {retry_after:.2f}s",
                         retry_after=retry_after)
        self.client = client


class QueueClosedError(ServiceError):
    """The queue stopped intake (drain) and has no jobs left."""

    status = 503

    def __init__(self) -> None:
        super().__init__("queue closed", retry_after=1.0)


class TokenBucket:
    """A classic token bucket; ``try_acquire`` never blocks.

    ``rate`` is tokens/second, ``burst`` the bucket capacity.  The
    clock is injectable so tests can step time deterministically.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ServiceError(f"rate and burst must be positive, "
                               f"got rate={rate} burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens; returns 0.0 on success, else the wait in
        seconds until ``n`` tokens will be available."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with shared rate/burst parameters."""

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst) if burst else max(1.0, 2 * self.rate)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def check(self, client: str) -> None:
        """Charge one request to ``client``; raise when over budget."""
        if not self.enabled:
            return
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self._clock)
            self._buckets[client] = bucket
        wait = bucket.try_acquire()
        if wait > 0:
            raise RateLimitedError(client, wait)


class FairJobQueue:
    """Bounded priority queue with per-client round-robin fairness."""

    def __init__(self, depth: int):
        if depth <= 0:
            raise ServiceError(f"queue depth must be positive, got {depth}")
        self.depth = depth
        # level -> client -> FIFO of queued jobs; OrderedDict order is
        # the round-robin order (served client rotates to the back).
        self._levels: Dict[int, "OrderedDict[str, Deque[Job]]"] = {
            0: OrderedDict(), 1: OrderedDict(), 2: OrderedDict()}
        self._size = 0
        self._closed = False
        self._wakeup = asyncio.Event()
        #: EWMA of per-job service seconds, maintained by the workers;
        #: feeds the Retry-After estimate.
        self.avg_service_seconds = 0.5

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    def clients(self) -> List[str]:
        seen: List[str] = []
        for level in self._levels.values():
            for client in level:
                if client not in seen:
                    seen.append(client)
        return seen

    def retry_after(self) -> float:
        """How long a rejected client should wait before retrying.

        The backlog needs roughly ``size * avg_service`` worker-seconds
        to drain; half of that is a reasonable, bounded hint.
        """
        estimate = 0.5 * self._size * max(self.avg_service_seconds, 0.01)
        return min(60.0, max(1.0, estimate))

    def observe_service_seconds(self, seconds: float) -> None:
        """Fold one finished job's service time into the EWMA."""
        alpha = 0.2
        self.avg_service_seconds += alpha * (seconds
                                             - self.avg_service_seconds)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put_nowait(self, job: Job) -> None:
        """Enqueue or raise (:class:`QueueFullError` on backpressure)."""
        if self._closed:
            raise QueueClosedError()
        if self._size >= self.depth:
            raise QueueFullError(self._size, self.retry_after())
        level = self._levels[job.priority]
        level.setdefault(job.client, deque()).append(job)
        self._size += 1
        self._wakeup.set()

    def close(self) -> None:
        """Stop intake.  Getters drain what is queued, then raise
        :class:`QueueClosedError` — the shutdown path."""
        self._closed = True
        self._wakeup.set()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def _pop_once(self) -> Optional[Job]:
        """Next entry by priority then client round-robin."""
        for priority in sorted(self._levels):
            level = self._levels[priority]
            for client in list(level):
                # Popping and re-inserting rotates the served client to
                # the back of its level; an emptied lane is dropped.
                dq = level.pop(client)
                if not dq:
                    continue
                job = dq.popleft()
                self._size -= 1
                if dq:
                    level[client] = dq
                return job
        return None

    def _pop(self) -> Optional[Job]:
        """Like :meth:`_pop_once`, but lazily drops cancelled entries
        (belt and braces — :meth:`cancel` removes them eagerly)."""
        while True:
            job = self._pop_once()
            if job is None or job.state is not JobState.CANCELLED:
                return job

    async def get(self) -> Job:
        """Wait for the next job (priority + fairness order).

        Raises :class:`QueueClosedError` once the queue is closed *and*
        empty, which is how workers learn the drain is complete.
        """
        while True:
            job = self._pop()
            if job is not None:
                return job
            if self._closed:
                raise QueueClosedError()
            self._wakeup.clear()
            await self._wakeup.wait()

    def cancel(self, job: Job) -> bool:
        """Remove a queued job (DELETE endpoint); False if not queued."""
        dq = self._levels.get(job.priority, {}).get(job.client)
        if dq is None:
            return False
        try:
            dq.remove(job)
        except ValueError:
            return False
        self._size -= 1
        return True
