"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-tables --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics
listed in ``BENCHMARK.json``.  ``--trace 1`` runs one untraced pass,
then traced passes with probes wrapped around each layer's public
functions (see ``probes.py``), and reports the per-layer metrics.
Passes repeat until ``--seconds`` have elapsed and at least
``MIN_PASSES`` were made, and none starts after ``LAST_START_S``; before
each pass the heap is collected, so passes start alike.  The last line of standard output is the result
object; progress and the host drift record go to standard error.

``--setup-only`` sets the workload up once in this interpreter, prints
``{"setup_s": ...}`` and exits: the runner's extra set-up repetitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

import probes  # noqa: E402  (stdlib-only at import; repro loads lazily)
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups per untraced run: the run's own and the rest in fresh
#: interpreters (``--setup-only``).  ``setup_s`` is their median.
SETUP_REPS = 3

#: Timed passes a run makes at least, so ``latency_s`` is a median.
MIN_PASSES = 3

#: No pass starts later than this after the runner's first line, so a run
#: ends within its time limit even when a pass runs until it times out.
LAST_START_S = 100.0

#: Thread-count knobs of the BLAS and OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: Seconds a single-threaded pass stays on one CPU before it moves on.
CPU_SWITCH_S = 0.1

#: Counts that must repeat exactly in every traced pass of a workload.
DETERMINISTIC_COUNTS = ("gates.lane_vectors", "gates.faults_graded",
                        "gates.fault_batches", "faultsim.sessions",
                        "service.jobs")


def calibrate(reps: int = 5) -> float:
    """Median time of a fixed pure-Python kernel: machine drift, recorded
    beside the metrics and never used to scale them."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def load_average() -> float:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return os.getloadavg()[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_values(installed, outcome, tel) -> dict:
    """Per-layer metrics of one traced pass."""
    rec = installed.recorder
    tally = rec.tally

    def sec(probe):
        return rec.seconds.get(probe, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    sessions = 0.0
    if tel is not None and "faultsim.sessions" in tel.metrics():
        sessions = float(tel.metrics()["faultsim.sessions"].value)
    values = {
        "rtl.design_s": sec("rtl.design"),
        "faultsim.universe_s": sec("faultsim.universe"),
        "faultsim.track_s": sec("faultsim.track"),
        "faultsim.track_vectors_per_s": ratio(tally["track_vectors"],
                                              sec("faultsim.track")),
        "faultsim.classify_s": sec("faultsim.classify"),
        "faultsim.sessions": sessions,
        "analysis.compat_s": sec("analysis.compat"),
        "experiments.self_s": (outcome.seconds
                               - installed.main_thread_seconds()),
        "cache.store_s": sec("cache.store"),
        "cache.stores": float(rec.calls.get("cache.store", 0)),
        "cache.store_bytes": tally["store_bytes"],
        "cache.load_s": sec("cache.load"),
        "cache.hits": tally["cache_hits"],
        "cache.misses": tally["cache_misses"],
        "gates.elaborate_s": sec("gates.elaborate"),
        "gates.enumerate_s": sec("gates.enumerate"),
        "gates.compile_s": sec("gates.compile"),
        "gates.golden_s": sec("gates.golden"),
        "gates.grade_s": sec("gates.grade"),
        "gates.grade_faults_per_s": ratio(tally["grade_faults"],
                                          sec("gates.grade")),
        "gates.regrade_ratio": ratio(tally["gates.faults_graded"],
                                     tally["grade_faults"]),
        "cluster.grade_shard_s": sec("cluster.grade_shard"),
        "cluster.merge_s": sec("cluster.merge"),
    }
    for name in probes.GATE_COUNTERS:
        values[name] = tally[name]
    for name in ("service.queued_s", "service.running_s", "service.client_s",
                 "service.busy_frac", "service.jobs", "service.rejected",
                 "service.failed"):
        values[name] = outcome.layers.get(name, 0.0)
    return values


@contextlib.contextmanager
def spread_over_cpus(enabled: bool):
    """Move the calling thread round the allowed CPUs every
    :data:`CPU_SWITCH_S` while the block runs.  A single-threaded pass
    then sees every CPU's speed alike, instead of that of whichever CPU
    a busy neighbour on a shared machine happens to slow."""
    cpus = sorted(os.sched_getaffinity(0))
    if not enabled or len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def mover():
        k = 0
        while not stop.wait(CPU_SWITCH_S):
            k += 1
            os.sched_setaffinity(tid, {cpus[k % len(cpus)]})

    thread = threading.Thread(target=mover, name="perfbench-cpu-mover",
                              daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
        os.sched_setaffinity(tid, cpus)


def enough(passes: int, elapsed: float, seconds: float,
           min_passes: int) -> bool:
    """Whether a measuring loop may stop: ``seconds`` spent and
    ``min_passes`` made, or :data:`LAST_START_S` reached in any case."""
    if time.perf_counter() - T0 >= LAST_START_S:
        return True
    return elapsed >= seconds and passes >= min_passes


def setup_in_child(args) -> float:
    """``setup_s`` of one cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"],
        stdout=subprocess.PIPE, timeout=120, check=True, text=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, log,
            min_passes: int = MIN_PASSES) -> list:
    """Untraced passes until :func:`enough`."""
    outcomes = []
    start = time.perf_counter()
    while True:
        if outcomes:
            workload.reset()
        wrapped = probes.wrapped_bindings()
        if wrapped:
            raise RuntimeError(f"probe wrappers installed during an "
                               f"untraced pass: {wrapped}")
        gc.collect()  # every pass starts from a clean heap
        with spread_over_cpus(workload.single_threaded):
            outcome = workload.run_pass()
        log(f"pass {len(outcomes) + 1}: {outcome.seconds:.3f}s "
            f"failed {outcome.failed}/{outcome.attempted}", outcome.notes)
        outcomes.append(outcome)
        if enough(len(outcomes), time.perf_counter() - start, seconds,
                  min_passes):
            return outcomes


def measure_traced(workload, seconds: float, expected_counts, log):
    """Traced passes until :func:`enough`; returns (outcomes, per-pass
    layer dicts)."""
    from repro.telemetry import Telemetry, set_telemetry

    outcomes, layers = [], []
    start = time.perf_counter()
    while True:
        workload.reset()
        with probes.Probes(workload.bindings) as pr:
            tel = Telemetry(sinks=[]) if workload.own_telemetry else None
            previous = set_telemetry(tel) if tel is not None else None
            gc.collect()
            try:
                with spread_over_cpus(workload.single_threaded):
                    outcome = workload.run_pass()
            finally:
                if tel is not None:
                    set_telemetry(previous)
        values = layer_values(pr, outcome, tel)
        problems = [f"wrapper never fired: {key}" for key in pr.unfired()]
        counts = {k: values[k] for k in DETERMINISTIC_COUNTS}
        if layers and counts != {k: layers[0][k] for k in DETERMINISTIC_COUNTS}:
            problems.append(f"counts differ between traced passes: {counts}")
        if expected_counts is not None and counts != expected_counts:
            problems.append(f"counts {counts} != seed {expected_counts}")
        if problems:
            outcome.fail_all("; ".join(problems))
        log(f"traced pass {len(outcomes) + 1}: {outcome.seconds:.3f}s "
            f"failed {outcome.failed}/{outcome.attempted}", outcome.notes)
        outcomes.append(outcome)
        layers.append(values)
        if enough(len(outcomes), time.perf_counter() - start, seconds,
                  MIN_PASSES):
            break
    wrapped = probes.wrapped_bindings()
    if wrapped:
        raise RuntimeError(f"probe wrappers left installed: {wrapped}")
    return outcomes, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def log(line, notes=()):
        print(f"perfbench[{args.workload}] {line}", file=sys.stderr)
        for note in notes:
            print(f"perfbench[{args.workload}]   {note}", file=sys.stderr)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program sources under {SRC}; run from a full checkout")
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload; valid choices: {', '.join(names)}")
        return 2

    # Hermetic: no vector quartering, no shared cache, ledger or pool
    # size leaks in from the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One thread per BLAS/OpenMP pool, set before numpy loads: hidden
    # library threads would oversubscribe the CPUs the service's two
    # workers already use, and made pass times bimodal.
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    preamble = time.perf_counter() - T0  # the drift probe is not set-up
    if not args.setup_only:
        calib_s = calibrate()
        loadavg = load_average()
        log(f"seed {args.seed} host.calib_s {calib_s:.5f} "
            f"loadavg {loadavg:.2f}")

    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    workload = None
    try:
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, run_dir, expected)
        workload.setup()
        own_setup = preamble + time.perf_counter() - t
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        reps = [own_setup]
        if not args.trace:
            reps += [setup_in_child(args) for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(reps)
        log(f"setup {setup_s:.3f}s (cold set-ups "
            f"{', '.join(f'{r:.3f}' for r in reps)})")

        # A traced run needs one untraced pass, the base of the tracing
        # overhead; its time goes to the traced passes.
        outcomes = (measure(workload, 0, log, min_passes=1) if args.trace
                    else measure(workload, args.seconds, log))
        latency = statistics.median(o.seconds for o in outcomes)
        if args.trace:
            counts = expected["counts"].get(args.workload)
            traced, layers = measure_traced(workload, args.seconds, counts,
                                            log)
            outcomes += traced
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        if args.trace:
            metrics = {name: statistics.median(v[name] for v in layers)
                       for name in layers[0]}
            metrics["trace.overhead_frac"] = statistics.median(
                o.seconds for o in traced) / latency - 1.0
            metrics["host.calib_s"] = calib_s
            metrics["host.loadavg_1m"] = loadavg
            wanted = spec["per_layer"]
        else:
            jobs = [s for o in outcomes for s in o.job_seconds]
            metrics = {
                "setup_s": setup_s,
                "latency_s": latency,
                "faults_per_s": statistics.median(
                    o.faults for o in outcomes) / latency,
                "job_p50_s": statistics.median(jobs) if jobs else latency,
                "peak_rss_mb": peak_rss_mb(),
                "ok_frac": 1.0 - failed / attempted,
            }
            log(f"job_p50_s over {len(jobs)} jobs")
            wanted = spec["end_to_end"]
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(workdir)
        except OSError:
            pass

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
