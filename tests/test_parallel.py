"""Parallel execution layer: pool semantics, sweep, CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel import (
    SweepTask,
    gate_level_missed_parallel,
    pool_map,
    resolve_jobs,
    run_sweep,
)
from repro.parallel import sweep as sweep_module
from repro.parallel.pool import start_pool
from repro.resolve import SWEEP_GENERATOR_KEYS, UnknownNameError, make_generator
from repro.telemetry import set_telemetry, telemetry_session

from helpers import forked_map


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


def _sweep_task_dies_in_child(task):
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    raise AssertionError("the sweep ran a worker task in the parent")


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
    """Stands in for a ``ProcessPoolExecutor``: the first task's future
    raises ``error``; later tasks run in-process, or with ``run=False``
    fail the test if their answer is read."""

    def __init__(self, error, run=True):
        self.error = error
        self.run = run
        self.futures = []

    def submit(self, fn, *args):
        if not self.futures:
            outcome = self.error
        elif self.run:
            outcome = fn(*args)
        else:
            outcome = AssertionError("an answer after the break was read")
        self.futures.append(_SpyFuture(outcome))
        return self.futures[-1]


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto_at_least_one(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        """Under an affinity mask (``taskset``, a container cpuset) the
        machine has more CPUs than the process may run on."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == resolve_jobs(None) == 1

    def test_negative_rejected(self):
        with pytest.raises(ParallelError):
            resolve_jobs(-1)


class TestParallelMap:
    def test_empty(self):
        assert forked_map(_square, [], jobs=4) == []

    def test_serial_path(self):
        assert list(pool_map(None, _boom, [(1,), (2,), (3,)],
                             _square)) == [1, 4, 9]

    def test_ordered_results(self):
        items = list(range(40))
        assert forked_map(_square, items, jobs=2) == [x * x for x in items]

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            forked_map(_boom, [1, 2], jobs=2)

    def test_worker_crash_falls_back_serial(self):
        items = list(range(12))
        with telemetry_session() as tel:
            out = forked_map(_crash_in_child, items, jobs=2)
            assert tel.counter("parallel.fallbacks").value == 1
        assert out == [x * x for x in items]

    def test_custom_fallback_used_on_crash(self):
        """The task whose worker died and every later one go through
        the fallback, each once."""
        calls = []

        def fallback(x):
            calls.append(x)
            return x * x

        items = list(range(8))
        pool = start_pool(2, "fork", set_telemetry, (None,))
        try:
            out = list(pool_map(pool, _crash_in_child,
                                [(x,) for x in items], fallback))
        finally:
            pool.shutdown()
        assert out == [x * x for x in items]
        assert calls == items[len(items) - len(calls):] and calls

    @pytest.mark.parametrize("error", [BrokenProcessPool("worker died")],
                             ids=["broken"])
    def test_degraded_pool_cancels_no_future(self, error):
        """A broken pool fails its pending futures on its own manager
        thread; cancelling them as well races it (on Python 3.11 that
        thread dies with InvalidStateError).  So no future is
        cancelled, and the tasks left over run in-process."""
        spy = _SpyPool(error)
        items = list(range(8))
        with telemetry_session() as tel:
            out = list(pool_map(spy, _square, [(x,) for x in items],
                                _square))
            assert tel.counter("parallel.fallbacks").value == 1
        assert out == [x * x for x in items]
        assert len(spy.futures) == len(items)
        assert not any(f.cancelled for f in spy.futures)

    def test_raising_map_cancels_the_rest(self):
        """A task error is not a pool failure: it propagates, and the
        tasks not yet started are cancelled."""
        spy = _SpyPool(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            list(pool_map(spy, _square, [(x,) for x in range(8)], _square))
        assert len(spy.futures) == 8
        assert all(f.cancelled for f in spy.futures[1:])


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

    def test_a_pooled_sweep_grades_in_workers(self, ctx):
        """Each session is graded in a worker process: its
        ``faultsim.run`` span comes from a worker pid and merges under
        the ``parallel.sweep`` span, and nothing falls back."""
        ctx.reset_coverage()
        tasks = [SweepTask("LP", "LFSR-1", 96), SweepTask("LP", "Ramp", 96)]
        with telemetry_session() as tel:
            run_sweep(ctx, tasks, jobs=2)
            (sweep,) = [r for r in tel.roots if r.name == "parallel.sweep"]
            runs = [c for c in sweep.children if c.name == "faultsim.run"]
            assert len(runs) == len(tasks)
            assert os.getpid() not in {c.pid for c in runs}
            assert tel.counter("parallel.fallbacks").value == 0
            assert tel.counter("parallel.tasks").value == len(tasks)
        ctx.reset_coverage()

    def test_a_sweep_whose_worker_dies_grades_in_process(self, ctx,
                                                         monkeypatch):
        tasks = [SweepTask("LP", "LFSR-1", 96), SweepTask("LP", "Ramp", 96)]
        ctx.reset_coverage()
        serial = run_sweep(ctx, tasks, jobs=1)
        ctx.reset_coverage()
        monkeypatch.setattr(sweep_module, "_run_sweep_task",
                            _sweep_task_dies_in_child)
        with telemetry_session() as tel:
            healed = run_sweep(ctx, tasks, jobs=2)
            assert tel.counter("parallel.fallbacks").value == 1
        for s, h in zip(serial, healed):
            np.testing.assert_array_equal(s.detect_time, h.detect_time)
        ctx.reset_coverage()

    def test_a_sweep_whose_pool_cannot_start_grades_in_process(
            self, ctx, monkeypatch):
        import repro.parallel.pool as pool_module

        def refuse(**_kwargs):
            raise OSError("no processes here")

        tasks = [SweepTask("LP", "LFSR-1", 96), SweepTask("LP", "Ramp", 96)]
        ctx.reset_coverage()
        serial = run_sweep(ctx, tasks, jobs=1)
        ctx.reset_coverage()
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        with telemetry_session() as tel:
            healed = run_sweep(ctx, tasks, jobs=2)
            assert tel.counter("parallel.pool_failures").value == 1
            assert tel.counter("parallel.tasks").value == 0
        for s, h in zip(serial, healed):
            np.testing.assert_array_equal(s.detect_time, h.detect_time)
        ctx.reset_coverage()

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
            # Every batch went to a worker; the count is added once per
            # run, not once per batch or worker.
            batches = tel.counter("gates.fault_batches").value
            assert tel.counter("gates.batches_pooled").value == batches >= 1
            pooled = tel.counter("gates.lut_fused_levels").value
        assert serial > 0 and pooled == serial

    def test_a_worker_import_is_lean(self):
        """A grading worker imports this module alone: neither ``scipy``
        nor the analysis package loads, and the bare package loads no
        subpackage until one is read."""
        code = "\n".join((
            "import sys",
            "import repro",
            "loaded = [m for m in sys.modules if m.startswith('repro.')]",
            "assert not loaded, loaded",
            "import repro.parallel.gatework",
            "heavy = [m for m in sys.modules if m.split('.')[0] == 'scipy'",
            "         or m.startswith('repro.analysis')]",
            "assert not heavy, heavy",
            "assert callable(repro.filters.lowpass_design)",
        ))
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_pooled_grade_matches_serial(self, small_design):
        """Batches graded in worker processes give the serial run's
        verdicts, detection times and work counters, for each of two
        problems graded on one pool in turn."""
        from repro.gates.fault_parallel import (gate_level_missed,
                                                program_and_golden)
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.parallel.gatework import GradingProcesses

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        work = ("gates.fault_batches", "gates.faults_graded",
                "gates.cone_nets", "gates.chunks_skipped",
                "gates.faults_dropped", "gates.lane_vectors",
                "gates.frontier_nets")

        def grade(raw, grading, token):
            program, golden = program_and_golden(nl, raw)
            executor = None if grading is None else grading.batches(
                token, program, raw, golden)
            times = np.full(len(faults), -1, dtype=np.int64)
            with telemetry_session() as tel:
                missed = gate_level_missed(
                    nl, raw, faults, detect_times=times, program=program,
                    net_waves=golden, executor=executor)
                counts = {k: tel.counter(k).value for k in work}
                pooled = tel.counter("gates.batches_pooled").value
            return [f.netlist_fault.label for f in missed], times, counts, \
                pooled

        grading = GradingProcesses(2)
        grading.start()
        try:
            # The second problem replaces the first in every worker.
            for token, length in (("a", 600), ("b", 200), ("c", 600)):
                raw = Type1Lfsr(small_design.input_fmt.width).sequence(
                    length)
                serial, serial_times, serial_counts, none = grade(
                    raw, None, None)
                got, got_times, got_counts, pooled = grade(raw, grading,
                                                           token)
                assert got == serial and serial
                np.testing.assert_array_equal(got_times, serial_times)
                assert got_counts == serial_counts
                assert none == 0
                assert pooled == serial_counts["gates.fault_batches"]
        finally:
            grading.close()

    def test_a_broken_pool_grades_in_process_under_the_lock(
            self, small_design, monkeypatch):
        """Once its pool is broken, an executor grades the batches left
        in this process, each one under its lock, with the serial
        verdicts; the fallback is counted once."""
        import threading

        from repro.gates import fault_parallel
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.parallel import gatework
        from repro.telemetry import telemetry_session

        class ShutPool:
            def submit(self, *_args):
                raise RuntimeError("cannot schedule new futures after "
                                   "shutdown")

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(200)
        program, golden = fault_parallel.program_and_golden(nl, raw)
        serial = fault_parallel.gate_level_missed(
            nl, raw, faults, program=program, net_waves=golden)
        lock = threading.Lock()
        locked = []
        real = gatework.grade_batch

        def grade_batch(*args):
            locked.append(lock.locked())
            return real(*args)

        monkeypatch.setattr(gatework, "grade_batch", grade_batch)
        broken = []
        executor = gatework.PooledBatches(
            ShutPool(), "t", program, raw, golden, lock=lock,
            on_broken=broken.append)
        with telemetry_session() as tel:
            got = fault_parallel.gate_level_missed(
                nl, raw, faults, program=program, net_waves=golden,
                executor=executor)
            fallbacks = tel.counter("parallel.fallbacks").value
        assert [f.netlist_fault.label for f in got] == \
            [f.netlist_fault.label for f in serial]
        assert locked and all(locked) and not lock.locked()
        assert fallbacks == 1 and broken


    def test_no_pool_for_one_process_or_a_closed_owner(self):
        from repro.parallel.gatework import GradingProcesses

        single, closed = GradingProcesses(1), GradingProcesses(2)
        closed.close()
        for grading in (single, closed):
            grading.start()
            assert grading.batches("t", None, np.zeros(0),
                                   np.zeros(0)) is None

    def test_a_pool_that_breaks_cancels_no_batch(self, small_design):
        """The pool breaks at the first batch: no future is cancelled,
        that batch and every later one grade here with the serial
        verdicts, and the fallback is counted once across stages."""
        from repro.gates import fault_parallel
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.parallel.gatework import PooledBatches

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(600)
        program, golden = fault_parallel.program_and_golden(nl, raw)
        serial = fault_parallel.gate_level_missed(
            nl, raw, faults, program=program, net_waves=golden)
        spy = _SpyPool(BrokenProcessPool("worker died"), run=False)
        executor = PooledBatches(spy, "t", program, raw, golden)
        with telemetry_session() as tel:
            got = fault_parallel.gate_level_missed(
                nl, raw, faults, program=program, net_waves=golden,
                executor=executor)
            fallbacks = tel.counter("parallel.fallbacks").value
            spans, prefixes = list(tel.roots), set()
            while spans:
                span = spans.pop()
                spans.extend(span.children)
                if span.name == "gates.fault_batch":
                    prefixes.add(span.attrs["prefix"])
        assert [f.netlist_fault.label for f in got] == \
            [f.netlist_fault.label for f in serial]
        assert fallbacks == 1 and len(prefixes) > 1
        assert len(spy.futures) > 1
        assert not any(f.cancelled for f in spy.futures)


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
