"""A service's grading processes: their failure paths and lifetime.

``grade-shard`` jobs grade their cone batches in a pool of ``spawn``
worker processes (:class:`repro.service.workers.GradingProcesses`).
Every failure of that pool must leave the job's answer exactly what
``execute_job`` gives on a plain context, and no worker process may
outlive the service.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import ExperimentContext
from repro.parallel import gatework
from repro.service import ServiceConfig, ServiceThread, canonical_params
from repro.service.client import ServiceClient
from repro.service.workers import execute_job, usable_cpus

pytestmark = pytest.mark.skipif(usable_cpus() < 2,
                                reason="one usable CPU: no grading pool")

PARAMS = {"design": "LP", "vectors": 128, "indices": list(range(1024)),
          "total": 1024}


def _direct():
    return execute_job(ExperimentContext(), "grade-shard",
                       canonical_params("grade-shard", PARAMS))


def _die(*_args):
    """Stands in for the worker-side batch function: the worker dies."""
    os._exit(1)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children(pid: int):
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            kids += [int(k) for k in fh.read().split()]
    return kids


def test_a_pool_that_cannot_start_grades_in_process(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise OSError("no processes here")

    monkeypatch.setattr(gatework, "grading_pool", refuse)
    config = ServiceConfig(port=0, no_cache=True, workers=2)
    with ServiceThread(config) as svc:
        client = svc.client("no-pool")
        client.wait_ready(120)
        doc = client.wait(client.submit("grade-shard", PARAMS)["id"],
                          timeout=300)
        counters = client.metrics()["counters"]
    assert doc["state"] == "done", doc
    assert doc["result"] == _direct()
    assert counters["parallel.pool_failures"] == 1
    assert "gates.batches_pooled" not in counters


def test_a_dead_worker_falls_back_and_the_next_job_gets_a_fresh_pool(
        monkeypatch):
    monkeypatch.setattr(gatework, "run_batch", _die)
    config = ServiceConfig(port=0, no_cache=True, workers=2)
    with ServiceThread(config) as svc:
        client = svc.client("dying")
        client.wait_ready(120)
        first = client.wait(client.submit("grade-shard", PARAMS)["id"],
                            timeout=300)
        after_death = client.metrics()["counters"]
        monkeypatch.undo()
        second = client.wait(client.submit("grade-shard", PARAMS)["id"],
                             timeout=300)
        counters = client.metrics()["counters"]
    direct = _direct()
    assert first["state"] == second["state"] == "done", (first, second)
    assert first["result"] == second["result"] == direct
    assert after_death["parallel.fallbacks"] == 1
    assert "gates.batches_pooled" not in after_death
    assert counters["parallel.fallbacks"] == 1
    assert counters["gates.batches_pooled"] == \
        counters["gates.fault_batches"] - after_death["gates.fault_batches"]


def test_a_traced_job_counts_its_grading_on_metrics():
    """A coordinator-traced job's spans ride home in its trace, and its
    grading counters still count on the service's own /metrics."""
    config = ServiceConfig(port=0, no_cache=True, workers=2)
    with ServiceThread(config) as svc:
        client = svc.client("traced")
        client.wait_ready(120)
        doc = client.wait(client.submit("grade-shard", {
            "design": "LP", "vectors": 128, "indices": list(range(256)),
            "total": 256, "trace": {"trace_id": "ab" * 16}})["id"],
            timeout=300)
        counters = client.metrics()["counters"]
    assert doc["state"] == "done", doc
    assert doc["result"]["trace"]["spans"]
    assert counters["gates.fault_batches"] > 0
    assert counters["gates.batches_pooled"] == \
        counters["gates.fault_batches"]


def test_abort_terminates_the_grading_processes():
    config = ServiceConfig(port=0, no_cache=True, workers=2,
                           drain_deadline=0.05)
    svc = ServiceThread(config).start()
    try:
        client = svc.client("abort")
        client.wait_ready(120)
        job = client.submit("grade-shard", {
            "design": "LP", "vectors": 4096, "indices": list(range(16384)),
            "total": 16384})
        deadline = time.monotonic() + 120
        while not (client.job(job["id"]).get("progress") or {}):
            assert time.monotonic() < deadline, "the job never graded"
            time.sleep(0.05)
        pool = svc.service.pool.grading._pool
        workers = list(pool._processes.values())
        assert workers and all(p.is_alive() for p in workers)
    finally:
        summary = svc.stop()
    assert summary["clean"] == 0, summary
    assert not any(p.is_alive() for p in workers)
    assert svc.service.store.get(job["id"]).state.value == "failed"


def test_grading_processes_exit_with_a_killed_server(tmp_path):
    """SIGKILL leaves the server no chance to stop its pool: each
    worker notices its parent died and exits on its own."""
    env = dict(os.environ, REPRO_LEDGER_DIR=str(tmp_path / "ledger"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        for line in server.stdout:
            if "listening on" in line:
                break
        client = ServiceClient(line.split()[-1], client_id="kill")
        client.wait_ready(120)
        doc = client.wait(client.submit("grade-shard", PARAMS)["id"],
                          timeout=300)
        assert doc["state"] == "done", doc
        children = _children(server.pid)
        assert len(children) >= 2, children  # the workers, the tracker
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in children):
            assert time.monotonic() < deadline, \
                [pid for pid in children if _alive(pid)]
            time.sleep(0.1)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        server.stdout.close()
