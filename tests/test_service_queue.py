"""Unit tests for the fair bounded queue and the token-bucket limiter."""

import asyncio

import pytest

from repro.service import (
    FairJobQueue,
    JobStore,
    QueueClosedError,
    QueueFullError,
    RateLimitedError,
    RateLimiter,
    TokenBucket,
)
from repro.service.jobs import JobState


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_jobs(n, *, client="c", kind="rank", priority="normal"):
    store = JobStore()
    return [store.create(kind, {"vectors": 2 + i}, client=client,
                         priority=priority)[0] for i in range(n)]


def run(coro):
    return asyncio.run(coro)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_acquire() == 0.0

    def test_rate_limiter_per_client(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        limiter.check("a")
        limiter.check("b")  # separate bucket
        with pytest.raises(RateLimitedError) as err:
            limiter.check("a")
        assert err.value.status == 429
        assert err.value.retry_after > 0

    def test_zero_rate_disables_limiting(self):
        limiter = RateLimiter(rate=0.0)
        assert not limiter.enabled
        for _ in range(1000):
            limiter.check("a")


class TestBackpressure:
    def test_put_beyond_depth_raises_429(self):
        async def main():
            q = FairJobQueue(depth=2)
            jobs = make_jobs(3)
            q.put_nowait(jobs[0])
            q.put_nowait(jobs[1])
            with pytest.raises(QueueFullError) as err:
                q.put_nowait(jobs[2])
            assert err.value.status == 429
            assert err.value.retry_after >= 1.0

        run(main())

    def test_retry_after_scales_with_load(self):
        async def main():
            q = FairJobQueue(depth=100)
            for _ in range(20):
                q.observe_service_seconds(2.0)
            empty_hint = q.retry_after()
            for job in make_jobs(50):
                q.put_nowait(job)
            assert q.retry_after() > empty_hint
            assert q.retry_after() <= 60.0

        run(main())

    def test_closed_queue_rejects_puts(self):
        async def main():
            q = FairJobQueue(depth=2)
            q.close()
            with pytest.raises(QueueClosedError):
                q.put_nowait(make_jobs(1)[0])

        run(main())


class TestFairScheduling:
    def test_round_robin_across_clients(self):
        async def main():
            q = FairJobQueue(depth=16)
            store = JobStore()
            for client, count in (("a", 3), ("b", 3)):
                for i in range(count):
                    job, _ = store.create("rank", {"vectors": 2 + i},
                                          client=client)
                    q.put_nowait(job)
            order = [(await q.get()).client for _ in range(6)]
            # Interleaved, not a-a-a-b-b-b: client a never gets two
            # consecutive slots while b still has queued work.
            assert order == ["a", "b", "a", "b", "a", "b"]

        run(main())

    def test_priority_drains_first(self):
        async def main():
            q = FairJobQueue(depth=16)
            store = JobStore()
            low, _ = store.create("rank", {"vectors": 2}, priority="low")
            high, _ = store.create("rank", {"vectors": 3}, priority="high")
            normal, _ = store.create("rank", {"vectors": 4})
            for job in (low, normal, high):
                q.put_nowait(job)
            got = [await q.get() for _ in range(3)]
            assert [j.id for j in got] == [high.id, normal.id, low.id]

        run(main())

    def test_get_waits_for_put(self):
        async def main():
            q = FairJobQueue(depth=4)
            job = make_jobs(1)[0]

            async def producer():
                await asyncio.sleep(0.01)
                q.put_nowait(job)

            task = asyncio.ensure_future(producer())
            got = await asyncio.wait_for(q.get(), timeout=5)
            await task
            assert got is job

        run(main())

    def test_close_wakes_idle_getter(self):
        async def main():
            q = FairJobQueue(depth=4)

            async def getter():
                with pytest.raises(QueueClosedError):
                    await q.get()

            task = asyncio.ensure_future(getter())
            await asyncio.sleep(0.01)
            q.close()
            await asyncio.wait_for(task, timeout=5)

        run(main())

    def test_close_drains_before_raising(self):
        async def main():
            q = FairJobQueue(depth=4)
            jobs = make_jobs(2)
            for job in jobs:
                q.put_nowait(job)
            q.close()
            assert (await q.get()) is jobs[0]
            assert (await q.get()) is jobs[1]
            with pytest.raises(QueueClosedError):
                await q.get()

        run(main())


class TestCancelAndBatch:
    def test_cancel_removes_from_queue(self):
        async def main():
            q = FairJobQueue(depth=8)
            jobs = make_jobs(3)
            for job in jobs:
                q.put_nowait(job)
            assert q.cancel(jobs[1])
            assert not q.cancel(jobs[1])  # already gone
            assert len(q) == 2
            got = [await q.get() for _ in range(2)]
            assert [j.id for j in got] == [jobs[0].id, jobs[2].id]

        run(main())

    def test_get_skips_externally_cancelled(self):
        async def main():
            q = FairJobQueue(depth=8)
            jobs = make_jobs(2)
            for job in jobs:
                q.put_nowait(job)
            jobs[0].state = JobState.CANCELLED
            assert (await q.get()) is jobs[1]

        run(main())
