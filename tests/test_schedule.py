"""The Eq. 1 fault predictor: ranking properties, gate truth, recommend.

The analytic ranking must be a function of the fault set alone —
invariant under permutations of the fault universe — and must track
exact gate-level detection times (the slow-lane gate-truth check).
The gate grader itself batches faults in one order, cone locality.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.gates import (
    elaborate,
    enumerate_cell_faults,
    gate_level_missed,
    schedule_fault_batches,
)
from repro.gates.fault_parallel import DEFAULT_WORDS, EVENT_STAGE1_WORDS
from repro.schedule import (
    FaultPredictor,
    average_ranks,
    recommend_generator,
    spearman_rank_correlation,
)
from repro.service.jobs import canonical_params

from helpers import build_small_design


@pytest.fixture(scope="module")
def small():
    design = build_small_design()
    nl = elaborate(design.graph)
    faults = enumerate_cell_faults(design.graph, nl)
    return design, nl, faults


class TestStats:
    def test_average_ranks_ties(self):
        assert list(average_ranks([10.0, 20.0, 10.0, 30.0])) \
            == [1.5, 3.0, 1.5, 4.0]

    def test_spearman_perfect_and_inverse(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman_rank_correlation(x, [10, 20, 30, 40]) \
            == pytest.approx(1.0)
        assert spearman_rank_correlation(x, [40, 30, 20, 10]) \
            == pytest.approx(-1.0)

    def test_spearman_monotone_transform_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1, 100, size=50)
        y = rng.uniform(1, 100, size=50)
        rho = spearman_rank_correlation(x, y)
        assert spearman_rank_correlation(np.log(x), y ** 3) \
            == pytest.approx(rho)

    def test_spearman_constant_is_zero(self):
        assert spearman_rank_correlation([5, 5, 5], [1, 2, 3]) == 0.0

    def test_spearman_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman_rank_correlation([1], [2])


class TestPredictor:
    def test_probabilities_are_probabilities(self, small):
        design, _, faults = small
        p = FaultPredictor(design, "lfsr1", bins=64) \
            .detection_probability(faults)
        assert p.shape == (len(faults),)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_expected_times_inverse(self, small):
        design, _, faults = small
        pred = FaultPredictor(design, "lfsr1", bins=64)
        p = pred.detection_probability(faults)
        t = pred.expected_times(faults)
        hit = p > 0
        assert np.allclose(t[hit], 1.0 / p[hit])
        assert np.all(np.isinf(t[~hit]))

    def test_ranking_invariant_under_permutation(self, small):
        """Property: scores are a function of the fault, not its index.

        Scoring a permuted universe must yield exactly the permuted
        scores, so the induced ranking is permutation-invariant.
        """
        design, _, faults = small
        rng = np.random.default_rng(20260807)
        base = FaultPredictor(design, "lfsr1", bins=64) \
            .expected_times(faults)
        for _ in range(3):
            perm = rng.permutation(len(faults))
            shuffled = FaultPredictor(design, "lfsr1", bins=64) \
                .expected_times([faults[i] for i in perm])
            assert np.array_equal(shuffled, base[perm])

    def test_all_generators_have_models(self, small):
        design, _, faults = small
        for gen in ("lfsr1", "lfsr2", "lfsrd", "lfsrm", "ramp", "mixed"):
            p = FaultPredictor(design, gen, bins=32) \
                .detection_probability(faults[:8])
            assert np.all((p >= 0.0) & (p <= 1.0))


class TestSchedulers:
    def test_every_schedule_partitions_the_universe(self, small):
        """The cone schedule covers every fault exactly once, within
        the batch size, at every batch size the grader uses."""
        _, _, faults = small
        for batch_size in (64, 64 * DEFAULT_WORDS,
                           64 * EVENT_STAGE1_WORDS):
            batches = schedule_fault_batches(faults, batch_size)
            flat = sorted(i for b in batches for i in b)
            assert flat == list(range(len(faults)))
            assert all(len(b) <= batch_size for b in batches)


def cell_rank_correlation(faults, predicted, detect, censor):
    """Spearman's rho between predicted and gate-level detection times.

    Both sides are censored at ``censor`` (undetected and analytically
    undetectable faults pin there) and averaged per ``(node, bit)``
    cell: the predictor scores fault *sites*, not single faults.
    """
    actual = np.where(detect < 0, censor, detect).astype(float)
    pred = np.minimum(np.where(np.isfinite(predicted), predicted, censor),
                      censor)
    cells = {}
    for i, f in enumerate(faults):
        cells.setdefault((f.node_id, f.bit), []).append(i)
    return spearman_rank_correlation(
        [float(np.mean(pred[ix])) for ix in cells.values()],
        [float(np.mean(actual[ix])) for ix in cells.values()])


@pytest.mark.slow
class TestGateTruth:
    """The predictor's ranking against exact gate-level detection."""

    VECTORS = 1024

    def test_predicted_times_track_gate_detection(self, ctx):
        """LP x LFSR-1, full universe: rank correlation >= 0.8.

        Detection times come from the production grade (deepening on)
        at a 64-vector chunk; predictions from 1,024 amplitude bins.
        """
        from repro.cluster.shards import grading_problem

        design, nl, faults, raw = grading_problem(
            ctx, "LP", "lfsr1", self.VECTORS, ctx.config.generator_width)
        detect = np.full(len(faults), -1, dtype=np.int64)
        gate_level_missed(nl, raw, faults, chunk=64, detect_times=detect)
        predicted = FaultPredictor(design, "lfsr1", bins=1024) \
            .expected_times(faults)
        rho = cell_rank_correlation(faults, predicted, detect,
                                    censor=2.0 * self.VECTORS)
        assert rho >= 0.8, rho


class TestRecommend:
    def test_analytic_only(self, ctx):
        out = recommend_generator(ctx, "LP", vectors=256, top_k=0,
                                  bins=32, candidates=("lfsr1", "lfsrm"))
        assert out["best"] in ("lfsr1", "lfsrm")
        assert out["confirmed"] == []
        ranks = [c["analytic_rank"] for c in out["candidates"]]
        assert ranks == [1, 2]
        for c in out["candidates"]:
            assert 0.0 <= c["predicted_coverage"] <= 1.0

    def test_confirmed_recommendation(self, ctx):
        out = recommend_generator(ctx, "LP", vectors=256, top_k=2,
                                  confirm_vectors=64, confirm_faults=128,
                                  bins=32, candidates=("lfsr1", "ramp"))
        assert len(out["confirmed"]) == 2
        assert out["best"] in ("lfsr1", "ramp")
        best = max(out["confirmed"],
                   key=lambda c: (c["coverage"], -c["analytic_rank"]))
        assert out["best"] == best["generator"]
        for c in out["confirmed"]:
            assert c["faults"] <= 128
            assert c["detected"] + c["missed"] == c["faults"]

    def test_service_params_validation(self):
        out = canonical_params("recommend", {"design": "lp", "top_k": 3})
        assert out["design"] == "LP"
        assert out["top_k"] == 3
        assert out["confirm_faults"] > 0
        with pytest.raises(ServiceError):
            canonical_params("recommend", {"top_k": 99})
        with pytest.raises(ServiceError):
            canonical_params("recommend", {"no_such_knob": 1})


class _KeepaliveSseServer(threading.Thread):
    """Accepts one HTTP request and streams SSE keepalives forever.

    Models a live service with a hung job: the stream never goes quiet
    (so gap timeouts never fire) yet never delivers a terminal event.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.stop = threading.Event()

    def run(self):
        try:
            conn, _ = self.sock.accept()
        except OSError:
            return
        try:
            conn.settimeout(0.2)
            data = b""
            while b"\r\n\r\n" not in data:
                try:
                    data += conn.recv(4096)
                except socket.timeout:
                    break
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Connection: close\r\n\r\n")
            while not self.stop.is_set():
                conn.sendall(b": keepalive\n\n")
                time.sleep(0.05)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self.stop.set()
        self.sock.close()


class TestWatchTimeout:
    def test_watch_fails_by_deadline_on_keepalive_only_stream(self):
        from repro.cli import main

        server = _KeepaliveSseServer()
        server.start()
        try:
            t0 = time.monotonic()
            rc = main(["runs", "watch", "job-hung",
                       "--url", f"http://127.0.0.1:{server.port}",
                       "--timeout", "1.0"])
            elapsed = time.monotonic() - t0
        finally:
            server.close()
        assert rc == 1
        assert elapsed < 10.0

    def test_watch_reports_a_failed_stream_on_one_line(self, capsys):
        from repro.cli import main

        # Bound but not listening: every connection is refused.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", 0))
            rc = main(["runs", "watch", "job-gone",
                       "--url", f"http://127.0.0.1:{sock.getsockname()[1]}",
                       "--timeout", "30"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1, err
        assert err[0].startswith("repro: event stream of job job-gone"), err

    def test_events_deadline_raises(self):
        from repro.service.client import ServiceClient

        server = _KeepaliveSseServer()
        server.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            with pytest.raises(TimeoutError):
                for _ in client.events("job-hung", deadline=0.5):
                    pass
        finally:
            server.close()
