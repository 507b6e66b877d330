"""Unit tests for the service job model and store."""

import pytest

from repro.errors import ServiceError
from repro.service import JOB_KINDS, JobState, JobStore, canonical_params


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

    def test_serious_fault_is_an_unknown_kind(self):
        with pytest.raises(ServiceError) as err:
            canonical_params("serious-fault", None)
        assert err.value.status == 400
        assert JOB_KINDS == ("rank", "grade", "spectrum", "recommend",
                             "grade-shard")
        assert str(err.value).endswith(", ".join(JOB_KINDS))

    @pytest.mark.parametrize("params", [
        {"vectors": 0}, {"vectors": "many"}, {"vectors": 1 << 30},
        {"nonsense": 1},
    ])
    def test_rejections(self, params):
        with pytest.raises(ServiceError) as err:
            canonical_params("rank", params)
        assert err.value.status == 400

    def test_grade_shard_takes_no_chunk(self):
        params = {"total": 4, "indices": [0, 1]}
        assert "chunk" not in canonical_params("grade-shard", params)
        with pytest.raises(ServiceError,
                           match="unknown parameter.*chunk") as err:
            canonical_params("grade-shard", dict(params, chunk=64))
        assert err.value.status == 400

    def test_unknown_name_is_http_400(self):
        # Resolver errors must surface as client errors, not 500s.
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            canonical_params("rank", {"design": "XXL"})

    def test_equivalent_spellings_canonicalize_alike(self):
        a = canonical_params("grade", {"design": "lp", "generator": "lfsr1"})
        b = canonical_params("grade", {"design": "LP",
                                       "generator": "LFSR-1"})
        assert a == b
        c = canonical_params("grade", {"design": "BP",
                                       "generator": "LFSR-1"})
        assert c != a


class TestJobStore:
    def test_create_assigns_unique_ids(self):
        store = JobStore()
        a = store.create("rank", {})
        b = store.create("rank", {})
        assert a.id != b.id
        assert store.get(a.id) is a

    def test_ttl_purges_finished_jobs(self):
        clock = FakeClock()
        store = JobStore(result_ttl=60, clock=clock)
        job = store.create("rank", {})
        job.finish(JobState.DONE, clock(), result={"ok": 1})
        clock.advance(59)
        assert store.get(job.id) is job
        clock.advance(2)
        assert store.get(job.id) is None

    def test_unfinished_jobs_never_purged(self):
        clock = FakeClock()
        store = JobStore(result_ttl=60, clock=clock)
        job = store.create("rank", {})
        clock.advance(10_000)
        assert store.get(job.id) is job

    def test_counts_by_state(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        a = store.create("rank", {})
        b = store.create("rank", {"vectors": 8})
        b.finish(JobState.FAILED, clock(), error="boom")
        counts = store.counts()
        assert counts["queued"] == 1 and counts["failed"] == 1


class TestJobSnapshot:
    def test_result_only_when_done(self):
        clock = FakeClock()
        store = JobStore(clock=clock)
        job = store.create("rank", {})
        doc = job.to_dict()
        assert doc["state"] == "queued"
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
        job = store.create("rank", {})
        job.finish(JobState.FAILED, clock(), error="exploded")
        doc = job.to_dict()
        assert doc["error"] == "exploded" and "result" not in doc
