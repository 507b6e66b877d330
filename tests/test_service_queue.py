"""Unit tests for the bounded FIFO job queue."""

import asyncio

import pytest

from repro.service import JobQueue, JobStore, QueueClosedError, QueueFullError
from repro.service.jobs import JobState


def make_jobs(n, *, client="c", kind="rank"):
    store = JobStore()
    return [store.create(kind, {"vectors": 2 + i}, client=client)
            for i in range(n)]


def run(coro):
    return asyncio.run(coro)


class TestBackpressure:
    def test_put_beyond_depth_raises_429(self):
        async def main():
            q = JobQueue(depth=2)
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
            q = JobQueue(depth=100)
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
            q = JobQueue(depth=2)
            q.close()
            with pytest.raises(QueueClosedError):
                q.put_nowait(make_jobs(1)[0])

        run(main())


class TestFairScheduling:
    def test_fifo_across_clients(self):
        async def main():
            q = JobQueue(depth=16)
            store = JobStore()
            arrivals = [store.create("rank", {"vectors": 2 + i},
                                     client=client)
                        for i, client in enumerate("aaabab")]
            for job in arrivals:
                q.put_nowait(job)
            got = [await q.get() for _ in arrivals]
            # Arrival order, whoever submitted: no per-client lanes.
            assert [j.id for j in got] == [j.id for j in arrivals]

        run(main())

    def test_get_waits_for_put(self):
        async def main():
            q = JobQueue(depth=4)
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
            q = JobQueue(depth=4)

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
            q = JobQueue(depth=4)
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
            q = JobQueue(depth=8)
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
            q = JobQueue(depth=8)
            jobs = make_jobs(2)
            for job in jobs:
                q.put_nowait(job)
            jobs[0].state = JobState.CANCELLED
            assert (await q.get()) is jobs[1]

        run(main())
