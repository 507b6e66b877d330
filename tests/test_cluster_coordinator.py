"""Coordinator against a live in-process fleet: dispatch, failure
reassignment, dead and draining endpoints, and single-node identity."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import Shard, run_cluster_sweep, shard_signature_partial
from repro.cluster.coordinator import ClusterCoordinator
from repro.errors import ClusterError
from repro.service.client import ServiceBusy, ServiceClient, ServiceClientError
from repro.service.lifecycle import ServiceConfig
from repro.service.testing import ServiceThread
from repro.telemetry import InMemorySink, Telemetry, use_telemetry

#: Nothing listens here — connections are refused instantly, which is
#: exactly the "worker died" failure mode the coordinator must survive.
DEAD_ENDPOINT = "http://127.0.0.1:9"

# 600 faults split on the 512-fault cone-batch boundary -> 2 shards.
SWEEP = dict(vectors=96, faults_limit=600, shard_faults=512,
             poll=0.3, shard_timeout=120.0)


@pytest.fixture(scope="module")
def fleet():
    with ServiceThread(ServiceConfig(port=0, no_cache=True)) as a, \
            ServiceThread(ServiceConfig(port=0, no_cache=True)) as b:
        yield a, b


class TestFleetSweep:
    def test_two_workers_match_single_node(self, fleet):
        a, b = fleet
        report = run_cluster_sweep([a.base_url, b.base_url], verify=True,
                                   **SWEEP)
        assert report.verified is True
        assert report.shards == 2
        assert report.merged.total == 600
        doc = report.to_doc()
        assert doc["signature"].startswith("0x")
        assert all(w["state"] == "live" for w in doc["workers"])
        assert sum(w["shards"] for w in doc["workers"]) == report.shards
        assert sum(t["faults"] for t in doc["shard_timings"]) == 600

    def test_later_sweeps_grade_their_own_stimulus(self, fleet):
        # Sweeps from one process against one worker, each with other
        # parameters: every sweep's shards must be graded afresh, not
        # answered with an earlier sweep's jobs.
        a, _b = fleet
        for vectors in (64, 128):
            report = run_cluster_sweep([a.base_url], verify=True,
                                       **dict(SWEEP, vectors=vectors))
            assert report.verified is True

    def test_dead_worker_is_survived(self, fleet):
        a, _b = fleet
        report = run_cluster_sweep(
            [DEAD_ENDPOINT, a.base_url], verify=True, **SWEEP)
        assert report.verified is True
        doc = report.to_doc()
        tallies = {w["endpoint"]: w for w in doc["workers"]}
        assert tallies[DEAD_ENDPOINT]["shards"] == 0
        assert tallies[DEAD_ENDPOINT]["failures"] > 0
        assert tallies[a.base_url]["shards"] == report.shards
        assert report.retries > 0

    def test_dead_endpoint_is_fenced(self, fleet):
        a, _b = fleet
        report = run_cluster_sweep([DEAD_ENDPOINT, a.base_url], **SWEEP)
        tallies = {w["endpoint"]: w for w in report.to_doc()["workers"]}
        # Two refused shards make the endpoint dead, and a dead endpoint
        # takes no shard while the live one is still live.
        dead = tallies[DEAD_ENDPOINT]
        assert dead["state"] in ("suspect", "dead")
        assert 1 <= dead["failures"] <= 2
        assert tallies[a.base_url]["state"] == "live"
        assert report.merged.total == 600

    def test_all_workers_dead_is_fatal(self):
        # Three retries take the lone endpoint past "dead"; with no
        # other endpoint to defer to it is never fenced, so the retry
        # budget ends the sweep.
        with pytest.raises(ClusterError, match="failed after"):
            run_cluster_sweep([DEAD_ENDPOINT], vectors=96,
                              faults_limit=100, shard_faults=100,
                              poll=0.2, shard_timeout=10.0,
                              max_retries=3)


class _DeadClient:
    """Refuses every contact, and counts them."""

    def __init__(self, contacts):
        self.contacts = contacts

    def _refuse(self, *args, **kwargs):
        with self.contacts["cond"]:
            self.contacts["n"] += 1
            self.contacts["cond"].notify_all()
        raise ConnectionRefusedError("refused")

    submit = healthz = _refuse


class _InstantClient:
    """Grades every shard at once as all-undetected."""

    def __init__(self):
        self.params = {}

    def submit(self, kind, params):
        job_id = f"job-{len(self.params)}"
        self.params[job_id] = params
        return {"id": job_id}

    def job(self, job_id, wait=None):
        params = self.params[job_id]
        indices = params["indices"]
        times = [-1] * len(indices)
        return {"state": "done", "result": {
            "indices": indices,
            "detected": [0] * len(indices),
            "detect_times": times,
            "signature_partial": shard_signature_partial(
                params["misr_width"], indices, times, params["total"]),
            "faults": len(indices),
        }}


class _LiveClient(_InstantClient):
    """An :class:`_InstantClient` that answers only once
    ``ready(contacts)`` holds."""

    def __init__(self, contacts, ready):
        super().__init__()
        self.contacts = contacts
        self.ready = ready

    def job(self, job_id, wait=None):
        with self.contacts["cond"]:
            self.contacts["cond"].wait_for(
                lambda: self.ready(self.contacts), timeout=20.0)
        return super().job(job_id, wait)


class _RecoveringClient(_InstantClient):
    """Refuses its first two submits, then answers ``healthz`` and
    grades like an :class:`_InstantClient`; counts its probes and the
    submits it accepts."""

    def __init__(self, contacts):
        super().__init__()
        self.contacts = contacts
        self.refused = 0

    def submit(self, kind, params):
        with self.contacts["cond"]:
            if self.refused < 2:
                self.refused += 1
                raise ConnectionRefusedError("refused")
            self.contacts["accepted"] += 1
            self.contacts["cond"].notify_all()
        return super().submit(kind, params)

    def healthz(self):
        with self.contacts["cond"]:
            self.contacts["probes"] += 1
            self.contacts["cond"].notify_all()
        return {"status": "ok"}


class TestFence:
    def test_dead_endpoint_cannot_spend_other_shards_retries(self):
        contacts = {"n": 0, "cond": threading.Condition()}
        clients = {"dead": _DeadClient(contacts),
                   "live": _LiveClient(contacts,
                                       lambda c: c["n"] >= 3)}
        coord = ClusterCoordinator(
            ["dead", "live"], {}, total=4, test_length=8, max_retries=2,
            poll=0.01, backoff_base=0.05,
            client_factory=lambda ep: clients[ep])
        # The live endpoint holds its first shard until the dead one has
        # been contacted three times.  Unfenced, those three contacts
        # are three attempts at the other shard, which exhaust its
        # retry budget; fenced, the third is only a health probe.
        report = coord.run([Shard(0, (0, 1)), Shard(1, (2, 3))])
        tallies = {w.endpoint: w for w in report.workers}
        assert tallies["dead"].failures == 2
        assert tallies["dead"].shards == 0
        assert tallies["dead"].state == "dead"
        assert tallies["live"].shards == 2
        assert report.merged.total == 4

    def test_dead_endpoint_recovers_after_a_successful_probe(self):
        contacts = {"probes": 0, "accepted": 0,
                    "cond": threading.Condition()}
        # The live endpoint holds its first shard until the flaky one
        # has been probed and has accepted a shard after that, so shards
        # stay pending while the flaky endpoint refuses two submits
        # (dead, so fenced), is probed, and comes back to grade one.
        clients = {"flaky": _RecoveringClient(contacts),
                   "live": _LiveClient(contacts,
                                       lambda c: c["accepted"] >= 1)}
        coord = ClusterCoordinator(
            ["flaky", "live"], {}, total=6, test_length=8, max_retries=2,
            poll=0.01, backoff_base=0.05,
            client_factory=lambda ep: clients[ep])
        report = coord.run([Shard(0, (0, 1)), Shard(1, (2, 3)),
                            Shard(2, (4, 5))])
        tallies = {w.endpoint: w for w in report.workers}
        assert contacts["probes"] >= 1
        assert tallies["flaky"].state == "live"
        assert tallies["flaky"].failures == 2
        assert tallies["flaky"].shards >= 1
        assert report.merged.total == 6


class TestSpanTree:
    def test_shard_spans_are_children_of_the_sweep_span(self):
        """Dispatcher threads run in copies of the caller's context: the
        collector installed with ``use_telemetry`` records every
        ``cluster.shard`` span under the ``cluster.sweep`` span."""
        sink = InMemorySink()
        tel = Telemetry([sink])
        clients = {ep: _InstantClient() for ep in ("w1", "w2")}
        coord = ClusterCoordinator(
            ["w1", "w2"], {}, total=6, test_length=8, max_retries=2,
            poll=0.01, backoff_base=0.05,
            client_factory=lambda ep: clients[ep])
        with use_telemetry(tel):
            coord.run([Shard(0, (0, 1)), Shard(1, (2, 3)),
                       Shard(2, (4, 5))])
        spans = sink.span_events()
        sweep = [s for s in spans if s["name"] == "cluster.sweep"]
        shards = [s for s in spans if s["name"] == "cluster.shard"]
        assert len(sweep) == 1 and len(shards) == 3
        assert {s["parent"] for s in shards} == {sweep[0]["id"]}
        # Each submitted job names its own shard span as its parent.
        sent = [params["trace"] for client in clients.values()
                for params in client.params.values()]
        assert sorted(t["span_id"] for t in sent) == sorted(
            s["id"] for s in shards)
        assert {t["trace_id"] for t in sent} == {tel.trace_id}


class _RejectingClient:
    """Refuses every submission with a 400, and counts them."""

    def __init__(self):
        self.submits = 0

    def submit(self, kind, params):
        self.submits += 1
        raise ServiceClientError(
            400, "parameter 'misr_width' must be in [4, 24], got 2")


class _BusyOnceClient(_InstantClient):
    """Answers its first submit with a 429, then grades."""

    def __init__(self):
        super().__init__()
        self.busy = 0

    def submit(self, kind, params):
        if not self.busy:
            self.busy += 1
            raise ServiceBusy(429, "queue full", None, 0.01)
        return super().submit(kind, params)


class TestRejectedSubmit:
    def test_a_rejected_submit_ends_the_sweep_at_once(self):
        client = _RejectingClient()
        coord = ClusterCoordinator(
            ["w"], {}, total=2, test_length=8, max_retries=4,
            poll=0.01, backoff_base=0.05,
            client_factory=lambda ep: client)
        with pytest.raises(ClusterError,
                           match=r"'misr_width' must be in \[4, 24\]"):
            coord.run([Shard(0, (0, 1))])
        assert client.submits == 1
        assert coord.attempts == 1
        assert coord.tallies["w"].state == "live"
        assert coord.tallies["w"].failures == 0

    def test_a_busy_submit_is_retried(self):
        client = _BusyOnceClient()
        coord = ClusterCoordinator(
            ["w"], {}, total=2, test_length=8, max_retries=4,
            poll=0.01, backoff_base=0.05,
            client_factory=lambda ep: client)
        report = coord.run([Shard(0, (0, 1))])
        assert report.merged.total == 2
        assert report.retries == 1


class _DrainingFleet:
    """Scripted transport for two endpoints: host ``a`` answers every
    submit with 503 and ``Retry-After: 5``, as a draining worker does;
    host ``b`` accepts each job and returns it done, graded like an
    :class:`_InstantClient`.  ``b`` holds its answers until ``a`` has
    refused a submit, so ``a`` is sure to get an attempt."""

    def __init__(self):
        self.cond = threading.Condition()
        self.submits = {"a": 0, "b": 0}
        self.graded = _InstantClient()

    def request(self, client, method, path, body=None):
        if path == "/healthz":
            return 200, {}, {"status": "ok"}
        if method == "POST":
            with self.cond:
                self.submits[client.host] += 1
                self.cond.notify_all()
            if client.host == "a":
                return 503, {"retry-after": "5"}, {"error": "draining"}
            return 202, {}, self.graded.submit(body["kind"], body["params"])
        with self.cond:
            self.cond.wait_for(lambda: self.submits["a"] >= 1, timeout=20.0)
        job_id = path.split("?")[0].rsplit("/", 1)[1]
        return 200, {}, self.graded.job(job_id)


class TestDrainingWorker:
    def test_a_draining_workers_shard_moves_at_once(self, monkeypatch):
        import repro.service.client as client_module

        fleet = _DrainingFleet()
        monkeypatch.setattr(
            ServiceClient, "_request",
            lambda self, method, path, body=None:
                fleet.request(self, method, path, body))
        slept = []
        monkeypatch.setattr(client_module.time, "sleep", slept.append)
        # The default client factory: a 503 fails the attempt at once,
        # with no client-side sleeping and resubmitting first.
        coord = ClusterCoordinator(
            ["http://a:1", "http://b:2"], {}, total=4, test_length=8,
            poll=0.01, backoff_base=0.05)
        report = coord.run([Shard(0, (0, 1)), Shard(1, (2, 3))])
        tallies = {w.endpoint: w for w in report.workers}
        assert report.merged.total == 4
        assert tallies["http://b:2"].shards == 2
        assert {t["endpoint"] for t in report.shard_timings} \
            == {"http://b:2"}
        assert tallies["http://a:1"].shards == 0
        # Every attempt on A failed, each after exactly one submit.
        assert fleet.submits["a"] == tallies["http://a:1"].failures >= 1
        assert slept == []


class TestFaultsLimit:
    def test_negative_faults_limit_rejected_before_dispatch(self):
        # A negative limit would slice faults from the end; it must fail
        # before any shard reaches a worker.
        client = _InstantClient()
        with pytest.raises(ClusterError, match="faults_limit"):
            run_cluster_sweep(["fake"], vectors=96, faults_limit=-1,
                              shard_faults=65536, poll=0.05,
                              client_factory=lambda ep: client)
        assert client.params == {}


class TestSchedulingUnits:
    def _coordinator(self, **kwargs):
        defaults = dict(total=10, test_length=16)
        defaults.update(kwargs)
        return ClusterCoordinator(["http://127.0.0.1:9"], {}, **defaults)

    def test_backoff_grows_and_caps(self):
        coord = self._coordinator(backoff_base=0.5, backoff_cap=4.0)
        # Jitter is 0.5x-1.5x, so bound by [0.5*delay, 1.5*delay].
        for consecutive, delay in ((1, 0.5), (2, 1.0), (3, 2.0),
                                   (4, 4.0), (10, 4.0)):
            measured = coord._backoff(consecutive)
            assert 0.5 * delay <= measured <= 1.5 * delay

    def test_requires_endpoints(self):
        with pytest.raises(ClusterError):
            ClusterCoordinator([], {}, total=1, test_length=1)

    def test_run_requires_shards(self):
        with pytest.raises(ClusterError, match="no shards"):
            self._coordinator().run([])
