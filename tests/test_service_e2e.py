"""End-to-end acceptance test for the evaluation service.

The ISSUE's bar: an in-process service instance takes 20 mixed
rank/spectrum jobs from 3 simulated clients and returns results
identical to direct library calls; submissions past ``--queue-depth``
get 429; SIGTERM (here: the same in-process shutdown path) drains
in-flight jobs without losing any.
"""

import os
import sys
import threading

import pytest

import repro.gates
from repro.cluster.shards import (
    grade_shard,
    grading_problem,
    merge_shard_results,
    single_node_grade,
)
from repro.errors import ServiceError
from repro.experiments import ExperimentContext
from repro.service import ServiceConfig, ServiceThread, canonical_params
from repro.service.client import ServiceBusy, ServiceClient
from repro.service.workers import execute_job
from repro.telemetry import Telemetry, set_telemetry

# 20 mixed jobs: every (kind, params) also evaluated directly against
# the library for the equality check.  Several specs repeat across
# clients on purpose — they exercise the coalescer.
JOB_SPECS = [
    ("rank", {"design": "LP", "vectors": 256}),
    ("rank", {"design": "BP", "vectors": 256}),
    ("rank", {"design": "HP", "vectors": 256}),
    ("rank", {"design": "LP", "vectors": 512}),
    ("rank", {"design": "BP", "vectors": 1024}),
    ("rank", {"design": "hp", "vectors": 512}),       # alias spelling
    ("rank", {"design": "LP", "vectors": 256}),       # duplicate
    ("spectrum", {"generator": "lfsr1", "width": 8, "points": 8}),
    ("spectrum", {"generator": "lfsr2", "width": 8, "points": 8}),
    ("spectrum", {"generator": "lfsrd", "width": 8, "points": 8}),
    ("spectrum", {"generator": "lfsrm", "width": 8, "points": 8}),
    ("spectrum", {"generator": "ramp", "width": 8, "points": 8}),
    ("spectrum", {"generator": "mixed", "width": 8, "points": 8}),
    ("spectrum", {"generator": "white", "width": 8, "points": 8}),
    ("spectrum", {"generator": "LFSR-1", "width": 8, "points": 4}),
    ("spectrum", {"generator": "lfsr1", "width": 10, "points": 8}),
    ("spectrum", {"generator": "ramp", "width": 10, "points": 8}),
    ("spectrum", {"generator": "lfsr1", "width": 8, "points": 8}),  # dup
    ("rank", {"design": "HP", "vectors": 256}),       # duplicate
    ("spectrum", {"generator": "ramp", "width": 8, "points": 8}),   # dup
]


def test_mixed_load_matches_direct_calls(ctx):
    config = ServiceConfig(port=0, no_cache=True, workers=2,
                           queue_depth=64)
    with ServiceThread(config, context=ctx) as svc:
        svc.client().wait_ready(60)

        # 3 simulated clients submit their share concurrently.
        shares = [JOB_SPECS[0::3], JOB_SPECS[1::3], JOB_SPECS[2::3]]
        results = {}
        errors = []

        def drive(client_idx, specs):
            client = ServiceClient(svc.base_url,
                                   client_id=f"client-{client_idx}",
                                   retries=12)
            try:
                submitted = [(seq, spec, client.submit(spec[0], spec[1]))
                             for seq, spec in enumerate(specs)]
                for seq, spec, job in submitted:
                    doc = client.wait(job["id"], timeout=120)
                    results[(client_idx, seq, spec[0],
                             tuple(sorted(spec[1].items())))] = doc
            except Exception as exc:  # surfaced after join
                errors.append((client_idx, exc))

        threads = [threading.Thread(target=drive, args=(i, share))
                   for i, share in enumerate(shares)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, f"client failures: {errors}"
        assert len(results) == len(JOB_SPECS)

        # Every service answer must equal the direct library call.
        for doc in results.values():
            assert doc["state"] == "done", doc
        for (client_idx, seq, kind, items), doc in results.items():
            params = dict(items)
            direct = execute_job(ctx, kind, canonical_params(kind, params))
            assert doc["result"] == direct, (kind, params)

        metrics = svc.client().metrics()["service"]
        assert metrics["jobs_done"] >= len(JOB_SPECS)

    summary = svc.summary
    assert summary["clean"] == 1
    assert summary["failed"] == 0


def test_backpressure_past_queue_depth(ctx):
    # One worker, tiny queue: the leader job occupies the worker while
    # the queue fills, so the 4th submission must see 429.
    config = ServiceConfig(port=0, no_cache=True, workers=1,
                           queue_depth=2)
    with ServiceThread(config, context=ctx) as svc:
        client = svc.client("flooder")
        client.wait_ready(60)
        admitted = []
        rejected = 0
        for i in range(8):
            try:
                admitted.append(
                    client.submit("grade", {"design": "LP",
                                            "generator": "LFSR-1",
                                            "vectors": 64 + i}))
            except ServiceBusy as exc:
                rejected += 1
                assert exc.status == 429
                assert exc.retry_after >= 1.0
        assert rejected > 0, "queue never pushed back"
        assert len(admitted) >= 3  # leader + queue_depth

        # Cancel what is still queued to keep the drain short; queued
        # cancels succeed, the running leader reports 409.
        outcomes = set()
        for job in admitted[1:]:
            try:
                outcomes.add(client.cancel(job["id"])["state"])
            except Exception:
                outcomes.add("conflict")
        summary = svc.stop()
    assert summary["clean"] == 1
    assert "cancelled" in outcomes


def test_shutdown_drains_without_losing_jobs(ctx):
    config = ServiceConfig(port=0, no_cache=True, workers=2,
                           queue_depth=64, drain_deadline=120)
    svc = ServiceThread(config, context=ctx).start()
    client = svc.client("drainer")
    client.wait_ready(60)
    jobs = [client.submit("spectrum", {"generator": g, "width": 8,
                                       "points": 4})
            for g in ("lfsr1", "lfsr2", "lfsrd", "lfsrm", "ramp")]
    jobs.append(client.submit("rank", {"design": "LP", "vectors": 128}))

    store = svc.service.store  # in-process: inspect after drain
    summary = svc.stop()

    assert summary["clean"] == 1, "drain hit the deadline"
    states = {j["id"]: store.get(j["id"]).state.value for j in jobs}
    assert all(state == "done" for state in states.values()), states
    assert summary["failed"] == 0
    assert summary["done"] >= len(jobs)


def test_service_never_forks(ctx, monkeypatch):
    """The service process must not fork: it runs jobs on executor
    threads, and a fork from a threaded process can stall BLAS on
    another thread forever (see ``repro.parallel.pool``).  One rank job
    holds the only worker while four distinct grade jobs queue up
    behind it; with ``os.fork`` refusing to run, every job must still
    be answered exactly as ``execute_job`` answers it."""
    forks = []

    def refuse_fork():
        forks.append(threading.current_thread().name)
        raise OSError("fork refused inside the service")

    monkeypatch.setattr(os, "fork", refuse_fork)
    specs = [("rank", {"design": "LP", "vectors": 4096})]
    specs += [("grade", {"design": "LP", "generator": "LFSR-1",
                         "vectors": 64 * (i + 1)}) for i in range(4)]
    config = ServiceConfig(port=0, no_cache=True, workers=1)
    with ServiceThread(config) as svc:
        client = svc.client("no-fork")
        client.wait_ready(120)
        jobs = [client.submit(kind, params) for kind, params in specs]
        docs = [client.wait(job["id"], timeout=300) for job in jobs]

    for (kind, params), doc in zip(specs, docs):
        assert doc["state"] == "done", doc
        direct = execute_job(ctx, kind, canonical_params(kind, params))
        assert doc["result"] == direct, (kind, params)
    assert forks == [], f"the service forked from threads {forks}"


def test_draining_service_refuses_submissions(ctx):
    config = ServiceConfig(port=0, no_cache=True, workers=1)
    with ServiceThread(config, context=ctx) as svc:
        client = svc.client()
        client.wait_ready(60)
        svc.request_shutdown("test")
        # The listener may close at any moment; until it does, new
        # submissions must be 503, never enqueued.
        try:
            client.submit("rank", {"vectors": 64})
        except ServiceBusy as exc:
            assert exc.status == 503
        except (ConnectionError, OSError):
            pass  # listener already closed: equally refused
        else:
            pytest.fail("draining service accepted a submission")


# ----------------------------------------------------------------------
# grade-shard: one prepared problem per service, one shard at a time
# ----------------------------------------------------------------------
def _shard_params(vectors, indices, total):
    return canonical_params("grade-shard", {
        "design": "LP", "vectors": vectors, "indices": list(indices),
        "total": total})


@pytest.fixture
def enumerations(monkeypatch):
    """Counts (and can fail) the universe enumeration a problem build
    calls through ``repro.gates`` at call time."""
    calls = []
    fail = []
    real = repro.gates.enumerate_cell_faults

    def counting(*args, **kwargs):
        calls.append(1)
        if fail:
            raise fail.pop()
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.gates, "enumerate_cell_faults", counting)
    return calls, fail


@pytest.fixture
def counters():
    """A live collector, so the memo's counters are readable."""
    tel = Telemetry()
    previous = set_telemetry(tel)
    try:
        yield lambda name: tel.counter(name).value
    finally:
        set_telemetry(previous)


class TestPreparedProblem:
    def test_shards_of_one_problem_build_it_once(self, enumerations):
        calls, _fail = enumerations
        total, vectors = 1024, 128
        parts = [range(k, total, 4) for k in range(4)]
        config = ServiceConfig(port=0, no_cache=True, workers=2)
        with ServiceThread(config, context=ExperimentContext()) as svc:
            client = svc.client("shards")
            client.wait_ready(120)
            jobs = [client.submit("grade-shard", {
                "design": "LP", "vectors": vectors,
                "indices": list(part), "total": total}) for part in parts]
            docs = [client.wait(job["id"], timeout=300) for job in jobs]
            metrics = client.metrics()["counters"]
        assert [doc["state"] for doc in docs] == ["done"] * 4, docs
        assert len(calls) == 1
        assert metrics["service.problems.built"] == 1
        assert metrics["service.problems.reused"] == 3

        merged = merge_shard_results(
            total, [dict(doc["result"], shard=k)
                    for k, doc in enumerate(docs)], test_length=vectors)
        _d, nl, faults, raw = grading_problem(
            ExperimentContext(), "LP", "lfsr1", vectors, 12)
        assert merged.identical_to(single_node_grade(nl, raw,
                                                     faults[:total]))

    def test_concurrent_jobs_share_one_build(self, enumerations, counters):
        """More threads than cores and a short switch interval: the
        jobs still build the problem once and answer alike."""
        calls, _fail = enumerations
        ctx = ExperimentContext()
        params = _shard_params(64, range(64), 64)
        results, errors = [], []

        def run():
            try:
                for _ in range(2):
                    results.append(execute_job(ctx, "grade-shard", params))
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(results) == 8
        assert all(doc == results[0] for doc in results)
        assert len(calls) == 1
        assert counters("service.problems.built") == 1
        assert counters("service.problems.reused") == 7

    def test_out_of_range_index_is_400_and_releases_the_lock(self):
        ctx = ExperimentContext()
        with pytest.raises(ServiceError, match="out of range") as err:
            execute_job(ctx, "grade-shard",
                        _shard_params(64, [100_000], 100_001))
        assert err.value.status == 400
        assert not ctx.grading_lock.locked()
        doc = execute_job(ctx, "grade-shard", _shard_params(64, range(64),
                                                            64))
        assert doc["faults"] == 64

    def test_a_build_that_raises_is_not_kept(self, enumerations, counters):
        calls, fail = enumerations
        ctx = ExperimentContext()
        params = _shard_params(64, range(64), 64)
        fail.append(RuntimeError("enumeration failed"))
        with pytest.raises(RuntimeError, match="enumeration failed"):
            execute_job(ctx, "grade-shard", params)
        assert ctx.grading_memo is None
        assert not ctx.grading_lock.locked()
        assert execute_job(ctx, "grade-shard", params)["faults"] == 64
        assert len(calls) == 2
        assert counters("service.problems.built") == 1
        assert counters("service.problems.reused") == 0

    def test_a_second_problem_replaces_the_first(self, counters):
        ctx = ExperimentContext()
        first = _shard_params(64, range(64), 64)
        second = _shard_params(128, range(64, 192), 192)
        execute_job(ctx, "grade-shard", first)
        doc = execute_job(ctx, "grade-shard", second)
        assert ctx.grading_memo.key == ("LP", "lfsr1", 128, 12)
        assert counters("service.problems.built") == 2
        _d, nl, faults, raw = grading_problem(
            ExperimentContext(), "LP", "lfsr1", 128, 12)
        direct = grade_shard(nl, raw, faults, second["indices"], 192)
        assert {k: doc[k] for k in direct} == direct
        # The first problem was dropped, not kept beside the second.
        execute_job(ctx, "grade-shard", first)
        assert counters("service.problems.built") == 3
        assert counters("service.problems.reused") == 0
