"""Parallel execution layer: pool semantics, sweep, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.parallel.pool as pool_module
from repro.errors import ParallelError
from repro.parallel import (
    SweepTask,
    default_chunk_size,
    gate_level_missed_parallel,
    parallel_map,
    resolve_jobs,
    run_sweep,
)
from repro.resolve import SWEEP_GENERATOR_KEYS, UnknownNameError, make_generator

from helpers import build_small_design


# ----------------------------------------------------------------------
# Worker functions (module-level so they pickle; the "crash" variants
# only misbehave inside a child process, so the parent-side serial
# fallback still computes the correct answer).
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _crash_in_child(x):
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return x * x


def _hang_in_child(x):
    if multiprocessing.parent_process() is not None:
        time.sleep(120)
    return x * x


class _SpyFuture:
    """A future with a fixed outcome that records ``cancel()``."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.cancelled = False

    def result(self, timeout=None):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome

    def cancel(self):
        self.cancelled = True
        return True


class _SpyPool:
    """Stands in for ``ProcessPoolExecutor``: the first chunk's future
    raises ``error``, later chunks run in-process; records shutdown."""

    def __init__(self, error, **_kwargs):
        self.error = error
        self.futures = []
        self.shutdown_args = None
        self._processes = {}

    def submit(self, fn, *args):
        outcome = self.error if not self.futures else fn(*args)
        self.futures.append(_SpyFuture(outcome))
        return self.futures[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_args = (wait, cancel_futures)


def _spy_pool(monkeypatch, error):
    pools = []

    def make(**kwargs):
        pools.append(_SpyPool(error, **kwargs))
        return pools[-1]

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", make)
    return pools


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto_at_least_one(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(2) == 2  # explicit beats env

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ParallelError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ParallelError):
            resolve_jobs(-1)

    def test_chunk_size_covers_items(self):
        for n, j in [(1, 1), (10, 4), (1000, 8), (7, 16)]:
            size = default_chunk_size(n, j)
            assert size >= 1
            assert size * -(-n // size) >= n


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_ordered_results(self):
        items = list(range(40))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_explicit_chunk_size(self):
        items = list(range(17))
        out = parallel_map(_square, items, jobs=2, chunk_size=3)
        assert out == [x * x for x in items]

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2], jobs=2)

    def test_worker_crash_falls_back_serial(self):
        items = list(range(12))
        out = parallel_map(_crash_in_child, items, jobs=2)
        assert out == [x * x for x in items]

    def test_timeout_falls_back_serial(self):
        items = list(range(6))
        out = parallel_map(_hang_in_child, items, jobs=2, timeout=1.0)
        assert out == [x * x for x in items]

    def test_custom_fallback_used_on_crash(self):
        calls = []

        def fallback(chunk):
            calls.append(list(chunk))
            return [x * x for x in chunk]

        items = list(range(8))
        out = parallel_map(_crash_in_child, items, jobs=2,
                           serial_fallback=fallback)
        assert out == [x * x for x in items]
        assert sum(len(c) for c in calls) == len(items)

    @pytest.mark.parametrize("error", [BrokenProcessPool("worker died"),
                                       FutureTimeoutError()],
                             ids=["broken", "timeout"])
    def test_degraded_pool_cancels_no_future(self, monkeypatch, error):
        """A broken pool, or one whose hung workers were terminated,
        fails its pending futures on its own manager thread; cancelling
        them as well races it (on Python 3.11 that thread dies with
        InvalidStateError).  So no future is cancelled, and the chunks
        left over run serially."""
        pools = _spy_pool(monkeypatch, error)
        items = list(range(8))
        out = parallel_map(_square, items, jobs=2, timeout=5.0)
        assert out == [x * x for x in items]
        (spy,) = pools
        assert len(spy.futures) > 1
        assert not any(f.cancelled for f in spy.futures)
        assert spy.shutdown_args == (False, False)

    def test_raising_map_cancels_the_rest(self, monkeypatch):
        """A task error is not a pool failure: it propagates, and the
        shutdown cancels the chunks not yet started."""
        pools = _spy_pool(monkeypatch, ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_square, list(range(8)), jobs=2)
        assert pools[0].shutdown_args == (True, True)


class TestSweep:
    def test_generator_keys_constructible(self):
        for key in SWEEP_GENERATOR_KEYS:
            gen = make_generator(key, 12, 256)
            assert len(gen.sequence(4)) == 4

    def test_unknown_generator(self):
        with pytest.raises(UnknownNameError):
            make_generator("FM", 12, 256)

    def test_unknown_design_rejected(self, ctx):
        with pytest.raises(ParallelError):
            run_sweep(ctx, [SweepTask("XX", "LFSR-1", 64)], jobs=1)

    def test_parallel_matches_serial(self, ctx):
        """jobs>1 produces bit-identical detection times to jobs=1."""
        tasks = [SweepTask("LP", "LFSR-1", 96), SweepTask("LP", "Ramp", 96)]
        serial = run_sweep(ctx, tasks, jobs=1)
        ctx.reset_coverage()
        parallel = run_sweep(ctx, tasks, jobs=2)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.detect_time, p.detect_time)
            assert s.n_vectors == p.n_vectors

    def test_results_land_in_context_memo(self, ctx):
        ctx.reset_coverage()
        task = SweepTask("LP", "LFSR-D", 96)
        (result,) = run_sweep(ctx, [task], jobs=1)
        gen = make_generator("LFSR-D", 12, 96)
        assert ctx.coverage("LP", gen, 96) is result
        ctx.reset_coverage()


class TestGatework:
    def test_matches_serial_engine(self, small_design):
        from repro.gates.fault_parallel import gate_level_missed
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(48)
        expect = gate_level_missed(nl, raw, faults)
        got = gate_level_missed_parallel(nl, raw, faults, jobs=2)
        assert [f.netlist_fault.label for f in got] == \
            [f.netlist_fault.label for f in expect]

    def test_progress_reported(self, small_design):
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        from repro.telemetry import telemetry_session

        raw = Type1Lfsr(small_design.input_fmt.width).sequence(32)
        ticks = []
        with telemetry_session() as tel:
            tel.on_progress(lambda s: ticks.append((s.name, s.done,
                                                    s.total)))
            gate_level_missed_parallel(nl, raw, faults, jobs=1)
        grade = [(done, total) for name, done, total in ticks
                 if name == "gates.grade"]
        assert grade and grade[-1][0] == grade[-1][1] == len(faults)

    def test_fused_levels_counted_once_per_run(self, small_design):
        from repro.gates.fault_parallel import gate_level_missed
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.telemetry import telemetry_session

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)[:1024]
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(48)
        with telemetry_session() as tel:
            gate_level_missed(nl, raw, faults)
            serial = tel.counter("gates.lut_fused_levels").value
        with telemetry_session() as tel:
            gate_level_missed_parallel(nl, raw, faults, jobs=2)
            # Two 512-fault shards, one per worker; the count is added
            # once per run, not once per shard.
            assert tel.counter("parallel.tasks").value == 2
            pooled = tel.counter("gates.lut_fused_levels").value
        assert serial > 0 and pooled == serial


class TestCliSweepBench:
    def test_sweep_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--designs", "LP", "--generators", "LFSR-1",
                "--vectors", "96", "--jobs", "1", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "LP" in out and "cache:" in out
        assert os.path.isdir(cache_dir)

        # warm rerun: pure hits, zero stores
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert " 0 misses / 0 stores" in out

    def test_sweep_no_cache(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--designs", "LP", "--generators", "Ramp",
                     "--vectors", "96", "--jobs", "1", "--no-cache"]) == 0
        assert "cache: disabled" in capsys.readouterr().out

    def test_sweep_bad_grid(self, capsys):
        from repro.cli import main

        # Unknown names are a one-line usage error (exit 2), not a raise.
        assert main(["sweep", "--designs", "ZZ", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown design 'ZZ'" in err
        assert "valid choices: BP, HP, LP" in err
        assert err.strip().count("\n") == 0

    def test_bench_report(self, tmp_path, capsys):
        from repro.cli import main

        out_path = str(tmp_path / "bench.json")
        assert main(["bench", "--designs", "LP", "--generators", "LFSR-1",
                     "--vectors", "96", "--jobs", "2",
                     "--out", out_path, "--check", "--threshold", "0.0"]) == 0
        report = json.loads(open(out_path).read())
        assert report["schema"] == "repro-bench-parallel/1"
        assert report["identical"] is True
        assert report["grid"]["sessions"] == 1
        assert report["grid"]["total_vectors"] == 96
        assert report["serial"]["vectors_per_sec"] > 0
        assert report["parallel"]["vectors_per_sec"] > 0
        assert report["parallel"]["jobs"] == 2
        assert "speedup" in report
        assert "bench check passed" in capsys.readouterr().out
