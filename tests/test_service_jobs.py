"""Unit tests for the service job model and store."""

import pytest

from repro.errors import ServiceError
from repro.service import JOB_KINDS, Job, JobState, JobStore, canonical_params


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCanonicalParams:
    def test_unknown_kind(self):
        with pytest.raises(ServiceError) as err:
            canonical_params("train", {})
        assert err.value.status == 400
        for kind in JOB_KINDS:
            assert kind in str(err.value)

    def test_rank_defaults_and_aliases(self):
        assert canonical_params("rank", {"design": "bp"}) == {
            "design": "BP", "vectors": 4096}

    def test_grade_resolves_both_namespaces(self):
        got = canonical_params("grade", {"design": "lp",
                                         "generator": "lfsr-d",
                                         "vectors": "256"})
        assert got == {"design": "LP", "generator": "LFSR-D",
                       "vectors": 256, "width": 12}

    def test_spectrum_uses_cli_namespace(self):
        got = canonical_params("spectrum", {"generator": "LFSR-1"})
        assert got["generator"] == "lfsr1"

    def test_serious_fault_takes_no_params(self):
        assert canonical_params("serious-fault", None) == {}
        with pytest.raises(ServiceError):
            canonical_params("serious-fault", {"design": "LP"})

    @pytest.mark.parametrize("params", [
        {"vectors": 0}, {"vectors": "many"}, {"vectors": 1 << 30},
        {"nonsense": 1},
    ])
    def test_rejections(self, params):
        with pytest.raises(ServiceError) as err:
            canonical_params("rank", params)
        assert err.value.status == 400

    def test_unknown_name_is_http_400(self):
        # Resolver errors must surface as client errors, not 500s.
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            canonical_params("rank", {"design": "XXL"})

    def test_equivalent_spellings_share_cache_key(self):
        store = JobStore()
        a, _ = store.create("grade", {"design": "lp", "generator": "lfsr1"})
        b, _ = store.create("grade", {"design": "LP",
                                      "generator": "LFSR-1"})
        assert a.cache_key == b.cache_key
        c, _ = store.create("grade", {"design": "BP",
                                      "generator": "LFSR-1"})
        assert c.cache_key != a.cache_key


class TestJobStore:
    def test_create_assigns_unique_ids(self):
        store = JobStore()
        a, created_a = store.create("rank", {})
        b, created_b = store.create("rank", {})
        assert created_a and created_b
        assert a.id != b.id
        assert store.get(a.id) is a

    def test_idempotency_replays_same_job(self):
        store = JobStore()
        a, first = store.create("rank", {}, client="c1",
                                idempotency_key="k")
        b, second = store.create("rank", {}, client="c1",
                                 idempotency_key="k")
        assert first and not second
        assert b is a

    def test_idempotency_is_per_client(self):
        store = JobStore()
        a, _ = store.create("rank", {}, client="c1", idempotency_key="k")
        b, created = store.create("rank", {}, client="c2",
                                  idempotency_key="k")
        assert created and b is not a

    def test_ttl_purges_finished_jobs(self):
        clock = FakeClock()
        store = JobStore(result_ttl=60, clock=clock)
        job, _ = store.create("rank", {}, idempotency_key="k")
        job.finish(JobState.DONE, clock(), result={"ok": 1})
        clock.advance(59)
        assert store.get(job.id) is job
        clock.advance(2)
        assert store.get(job.id) is None
        # ... and the idempotency slot is free again
        fresh, created = store.create("rank", {}, idempotency_key="k")
        assert created and fresh.id != job.id

    def test_unfinished_jobs_never_purged(self):
        clock = FakeClock()
        store = JobStore(result_ttl=60, clock=clock)
        job, _ = store.create("rank", {})
        clock.advance(10_000)
        assert store.get(job.id) is job

    def test_discard_forgets_idempotency(self):
        store = JobStore()
        job, _ = store.create("rank", {}, client="c", idempotency_key="k")
        store.discard(job)
        assert store.get(job.id) is None
        again, created = store.create("rank", {}, client="c",
                                      idempotency_key="k")
        assert created

    def test_counts_by_state(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        a, _ = store.create("rank", {})
        b, _ = store.create("rank", {"vectors": 8})
        b.finish(JobState.FAILED, clock(), error="boom")
        counts = store.counts()
        assert counts["queued"] == 1 and counts["failed"] == 1

    def test_bad_priority_rejected(self):
        with pytest.raises(ServiceError):
            JobStore().create("rank", {}, priority="urgent")


class TestJobSnapshot:
    def test_result_only_when_done(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        job, _ = store.create("rank", {}, priority="high")
        doc = job.to_dict()
        assert doc["state"] == "queued" and doc["priority"] == "high"
        assert "result" not in doc and "error" not in doc

        job.state = JobState.RUNNING
        job.started = clock() + 1
        job.finish(JobState.DONE, clock() + 3, result={"x": 1})
        doc = job.to_dict()
        assert doc["result"] == {"x": 1}
        assert doc["queued_seconds"] == pytest.approx(1.0)
        assert doc["running_seconds"] == pytest.approx(2.0)
        assert job.done.is_set()

    def test_failed_snapshot_carries_error_not_result(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        job, _ = store.create("rank", {})
        job.finish(JobState.FAILED, clock(), error="exploded")
        doc = job.to_dict()
        assert doc["error"] == "exploded" and "result" not in doc
