"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``     Table 1-style statistics for the reference designs.
``grade``     Run a BIST session and report coverage and missed faults.
``rank``      Rank generators against a design, propose a scheme.
``recommend`` Recommend a generator for a design: analytic predictor
              ranking with bounded gate-level confirmation of the
              top-k candidates.
``spectrum``  Print a generator's power spectrum.
``table N``   Regenerate paper Table N.
``figure N``  Regenerate paper Figure N.
``profile``   Profile a BIST session: span tree, rates, test-zone hits;
              ``--jobs`` merges worker-process spans into one trace and
              ``--export-trace`` writes Chrome-trace JSON.
``sweep``     Parallel design x generator coverage grid (cache-backed).
``bench``     Serial-vs-parallel throughput benchmark -> JSON report;
              ``--gates`` benches the exact gate engine against its
              reference oracle.  For an HTML run report, run it under
              ``--trace-out`` and render the trace with ``report``.
``serve``     Run the async BIST evaluation service (HTTP + JSON).
``cluster``   Shard exact gate-level fault grading across a fleet of
              ``serve`` endpoints and merge the verdicts, coverage
              checkpoints and MISR signature back bit-identically;
              ``--verify`` re-grades single-node and asserts identity.
``report``    Markdown paper report, or ``--trace`` for an HTML run
              report rendered from a JSONL telemetry trace.
``runs``      Query the append-only run ledger: ``list``, ``show``,
              ``compare``, ``trend`` (history-aware regression gate),
              ``validate`` (ledger integrity, or ``--schema FILE...``
              for report files), and ``watch`` (live progress of a
              service job over the SSE stream).

Global flags: ``--version``, ``-v/--verbose`` (repeatable),
``--profile`` (log a telemetry summary for any command) and
``--trace-out PATH`` (stream telemetry events as JSON Lines).
Every command that records a run (``profile``, ``sweep``, ``bench``,
``serve``, ``cluster``) takes ``--ledger-dir PATH`` / ``--no-ledger``
controlling where (whether) the run is recorded in the run ledger.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from .analysis.spectrum import generator_spectrum, power_db
from .bist.selection import propose_scheme, rank_generators
from .errors import ReproError
from .experiments import (
    ExperimentContext,
    figure1, figure2, figure3, figure4, figure5, figure6, figure7, figure8,
    figure9, figure10, figure11, figure12, figure13,
    table1, table2, table3, table4, table5, table6,
)
from .experiments.render import series_block
from .faultsim import run_fault_coverage
from .faultsim.report import coverage_summary, missed_fault_map
from .filters import design_statistics
from .ledger import (
    RUN_KINDS,
    RunLedger,
    build_record,
    current_git_sha,
    metric_value,
    summarize_telemetry,
    trend_check,
)
from .resolve import (
    GENERATOR_CHOICES,
    make_generator,
    resolve_design,
    resolve_generator,
    resolve_names,
)
from .telemetry import (
    JsonlSink,
    LoggingSummarySink,
    Telemetry,
    ZoneTracer,
    format_span_tree,
    get_telemetry,
    set_telemetry,
)

__all__ = ["main", "GENERATOR_CHOICES", "make_generator"]

logger = logging.getLogger("repro.cli")

_TABLES = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5, 6: table6}
_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5,
            6: figure6, 7: figure7, 8: figure8, 9: figure9, 10: figure10,
            11: figure11, 12: figure12, 13: figure13}

def package_version() -> str:
    """The installed package version (falls back to ``repro.__version__``)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed; running from a source tree
        from . import __version__

        return __version__


def _at_least(minimum: int):
    """argparse ``type`` for a count flag: an int no smaller than
    ``minimum``, so a negative count cannot slice from the end."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frequency-domain compatible BIST for digital filters "
                    "(Goodby & Orailoglu, DAC 1997 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for INFO logging, -vv for DEBUG")
    parser.add_argument("--profile", action="store_true",
                        help="collect telemetry and log a span/metric "
                             "summary after the command")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="stream telemetry events to PATH as JSON Lines")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several commands share, attached with parents=[...].
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument("--cache-dir", default=None, metavar="PATH",
                             help="artifact cache directory (default: "
                                  "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_flags.add_argument("--no-cache", action="store_true",
                             help="disable the artifact cache")
    ledger_dir_flag = argparse.ArgumentParser(add_help=False)
    ledger_dir_flag.add_argument("--ledger-dir", default=None,
                                 metavar="PATH",
                                 help="run-ledger directory (default: "
                                      "$REPRO_LEDGER_DIR or "
                                      "~/.local/state/repro/ledger)")
    ledger_flags = argparse.ArgumentParser(add_help=False,
                                           parents=[ledger_dir_flag])
    ledger_flags.add_argument("--no-ledger", action="store_true",
                              help="do not record this run in the run "
                                   "ledger")

    sub.add_parser("stats", help="design statistics (Table 1)")

    # Design/generator names are validated by the shared resolver at
    # dispatch (one-line error + exit 2), not by argparse choices=, so
    # aliases like "lfsr-1" work and the error message is uniform.
    grade = sub.add_parser("grade", help="run a BIST session")
    grade.add_argument("--design", default="LP", metavar="{LP,BP,HP}")
    grade.add_argument("--generator", default="lfsr1",
                       metavar="{" + ",".join(GENERATOR_CHOICES) + "}")
    grade.add_argument("--vectors", type=_at_least(1), default=4096)
    grade.add_argument("--width", type=int, default=12)
    grade.add_argument("--map", action="store_true",
                       help="also print where the missed faults live")
    grade.add_argument("--report", action="store_true",
                       help="also print the per-tap testability report")

    rank = sub.add_parser("rank", help="rank generators against a design")
    rank.add_argument("--design", default="LP", metavar="{LP,BP,HP}")
    rank.add_argument("--vectors", type=_at_least(1), default=4096)

    spectrum = sub.add_parser("spectrum", help="print a generator spectrum")
    spectrum.add_argument("--generator", default="lfsr1",
                          metavar="{" + ",".join(GENERATOR_CHOICES) + "}")
    spectrum.add_argument("--width", type=int, default=12)
    spectrum.add_argument("--points", type=_at_least(1), default=24)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=sorted(_TABLES))

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))

    report = sub.add_parser(
        "report",
        help="write the full markdown report, or an HTML run report "
             "from a telemetry trace (--trace)")
    report.add_argument("--out", default="reproduction_report.md")
    report.add_argument("--only", choices=("tables", "figures"),
                        help="restrict to tables or figures")
    report.add_argument("--trace", default=None, metavar="PATH",
                        help="render an HTML run report (span waterfall, "
                             "stage timings, cache hit rates) from a JSONL "
                             "telemetry trace instead; --out defaults to "
                             "the trace name with an .html suffix")

    export = sub.add_parser(
        "export", help="export a design (JSON / structural Verilog)")
    export.add_argument("--design", choices=("LP", "BP", "HP"), default="LP")
    export.add_argument("--format", choices=("json", "verilog"),
                        default="json")
    export.add_argument("--out", required=True)

    profile = sub.add_parser(
        "profile", parents=[ledger_flags],
        help="profile a BIST session: span tree, vectors/sec, zone hits")
    profile.add_argument("design", metavar="design")
    profile.add_argument("generator", metavar="generator")
    profile.add_argument("--vectors", type=_at_least(1), default=4096)
    profile.add_argument("--width", type=int, default=12)
    profile.add_argument("--beta", type=float, default=0.25,
                         help="test-zone width parameter (Figure 1)")
    profile.add_argument("--exact", type=_at_least(0), default=0, metavar="N",
                         help="also grade the first N gate-level faults "
                              "with the exact cone engine and report its "
                              "cone/drop counters (0 = skip)")
    profile.add_argument("--jobs", type=int, default=1,
                         help="fan --exact grading across N worker "
                              "processes; their spans merge into the "
                              "profile's trace (default 1 = in-process)")
    profile.add_argument("--export-trace", default=None, metavar="PATH",
                         help="also write the session as a Chrome-trace "
                              "JSON file (chrome://tracing, Perfetto)")

    def add_grid_flags(p, default_generators: str, default_vectors: int):
        p.add_argument("--designs", default="LP,BP,HP",
                       help="comma-separated subset of LP,BP,HP")
        p.add_argument("--generators", default=default_generators,
                       help="comma-separated generator keys "
                            "(LFSR-1, LFSR-2, LFSR-D, LFSR-M, Ramp, Mixed)")
        p.add_argument("--vectors", type=_at_least(1), default=default_vectors)
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = one per CPU this "
                            "process may run on)")

    sweep = sub.add_parser(
        "sweep", parents=[cache_flags, ledger_flags],
        help="grade a design x generator grid across worker processes")
    add_grid_flags(sweep, "LFSR-1,LFSR-D,LFSR-M,Ramp", 4096)

    bench = sub.add_parser(
        "bench", parents=[ledger_flags],
        help="time serial vs parallel grid grading; write a JSON report")
    add_grid_flags(bench, "LFSR-1,LFSR-D", 2048)
    bench.add_argument("--out", default="BENCH_parallel.json",
                       help="machine-readable benchmark report path")
    bench.add_argument("--check", action="store_true",
                       help="exit nonzero if parallel throughput falls "
                            "below --threshold x serial, or results differ")
    bench.add_argument("--threshold", type=float, default=1.0,
                       help="minimum acceptable parallel/serial throughput "
                            "ratio for --check (default 1.0)")
    bench.add_argument("--now", default=None, metavar="WHEN",
                       help="timestamp recorded as created_unix: a unix "
                            "float or ISO-8601 datetime (default: "
                            "$REPRO_BENCH_NOW, else the wall clock); "
                            "pin it for reproducible report diffs")
    bench.add_argument("--gates", action="store_true",
                       help="benchmark the exact gate-level engine "
                            "against the reference oracle instead of "
                            "the sweep grid")
    bench.add_argument("--gates-design", default="LP",
                       metavar="{LP,BP,HP}",
                       help="design graded by --gates (default LP)")
    bench.add_argument("--gates-vectors", type=_at_least(1), default=4096,
                       help="stimulus length for --gates (default 4096)")
    bench.add_argument("--gates-faults", type=_at_least(0), default=0,
                       help="restrict --gates to the first N faults "
                            "(0 = the full fault universe)")
    bench.add_argument("--gates-threshold", type=float, default=6.0,
                       help="minimum event-engine/reference speedup for "
                            "--gates --check (default 6.0)")
    bench.add_argument("--gates-out", default="BENCH_gatesim.json",
                       help="report path for --gates "
                            "(default BENCH_gatesim.json)")

    recommend = sub.add_parser(
        "recommend", parents=[cache_flags],
        help="recommend a test generator for a design: analytic "
             "predictor ranking, gate-level confirmation of the top-k")
    recommend.add_argument("--design", default="LP", metavar="{LP,BP,HP}")
    recommend.add_argument("--vectors", type=_at_least(1), default=4096,
                           help="session length the analytic ranking "
                                "assumes (default 4096)")
    recommend.add_argument("--candidates", default=None,
                           help="comma-separated generator subset "
                                "(default: the full paper menagerie)")
    recommend.add_argument("--top-k", type=_at_least(0), default=2,
                           help="candidates confirmed at gate level "
                                "(0 = analytic ranking only)")
    recommend.add_argument("--confirm-vectors", type=_at_least(0), default=512,
                           help="stimulus length of the confirmation "
                                "grade (0 skips confirmation)")
    recommend.add_argument("--confirm-faults", type=_at_least(0), default=2048,
                           help="gate-level fault budget of the "
                                "confirmation grade (0 skips it)")
    recommend.add_argument("--bins", type=_at_least(2), default=512,
                           help="amplitude-grid bins for the analytic "
                                "predictor (default 512)")
    recommend.add_argument("--json", action="store_true",
                           help="print the full result as JSON")

    serve = sub.add_parser(
        "serve", parents=[cache_flags, ledger_flags],
        help="run the async BIST evaluation service (HTTP + JSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337,
                       help="listen port (0 = pick an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="async worker tasks draining the queue")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before 429 backpressure")
    serve.add_argument("--result-ttl", type=float, default=600.0,
                       help="seconds finished jobs stay pollable")
    serve.add_argument("--drain-deadline", type=float, default=20.0,
                       help="seconds to finish in-flight jobs on shutdown")
    serve.add_argument("--access-log", default=None, metavar="PATH",
                       help="append per-request JSON Lines records to PATH")
    serve.add_argument("--events-keepalive", type=float, default=15.0,
                       help="seconds between SSE keepalive comments on "
                            "idle /v1/events streams (default 15)")

    cluster = sub.add_parser(
        "cluster", parents=[cache_flags, ledger_flags],
        help="shard exact gate-level grading across serve endpoints; "
             "merge verdicts, checkpoints and MISR signature")
    cluster.add_argument("endpoints", nargs="+", metavar="URL",
                         help="worker endpoints (repro serve instances)")
    cluster.add_argument("--design", default="LP", metavar="{LP,BP,HP}")
    cluster.add_argument("--generator", default="lfsr1",
                         metavar="{" + ",".join(GENERATOR_CHOICES) + "}")
    cluster.add_argument("--vectors", type=_at_least(1), default=512)
    cluster.add_argument("--width", type=int, default=12)
    cluster.add_argument("--faults", type=_at_least(0), default=0,
                         help="restrict to the first N enumerated faults "
                              "(0 = the full fault universe)")
    cluster.add_argument("--shard-faults", type=_at_least(1), default=4096,
                         help="max faults per shard; whole cone batches "
                              "are never split (default 4096)")
    cluster.add_argument("--misr-width", type=int, default=16,
                         help="MISR signature compaction width "
                              "(default 16)")
    cluster.add_argument("--shard-timeout", type=float, default=600.0,
                         help="seconds before one shard attempt is "
                              "abandoned and re-dispatched (default 600)")
    cluster.add_argument("--max-retries", type=_at_least(0), default=4,
                         help="retries per shard before the sweep fails "
                              "(default 4)")
    cluster.add_argument("--poll", type=float, default=2.0,
                         help="long-poll interval against workers "
                              "(default 2s)")
    cluster.add_argument("--verify", action="store_true",
                         help="also grade single-node locally and fail "
                              "unless verdicts, checkpoints and MISR "
                              "signature are bit-identical")
    cluster.add_argument("--out", default=None, metavar="PATH",
                         help="write the cluster report as JSON")

    runs = sub.add_parser(
        "runs", parents=[ledger_dir_flag],
        help="query the run ledger; watch live service jobs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    r_list = runs_sub.add_parser("list", help="recent run records")
    r_list.add_argument("--kind", default=None, choices=RUN_KINDS)
    r_list.add_argument("--last", type=_at_least(1), default=20,
                        help="show the newest N records (default 20)")

    r_show = runs_sub.add_parser("show", help="one record, pretty JSON")
    r_show.add_argument("run", help="record id (any unique prefix)")

    r_cmp = runs_sub.add_parser(
        "compare", help="numeric field-by-field diff of two records")
    r_cmp.add_argument("run_a", help="baseline record id prefix")
    r_cmp.add_argument("run_b", help="candidate record id prefix")

    r_trend = runs_sub.add_parser(
        "trend",
        help="gate the newest run against the median of its "
             "predecessors")
    r_trend.add_argument("--metric", default="faults_per_sec",
                         help="dotted metric path or bare bench/metrics "
                              "name (default faults_per_sec)")
    r_trend.add_argument("--kind", default="bench-gates",
                         choices=RUN_KINDS,
                         help="run kind the history is drawn from "
                              "(default bench-gates)")
    r_trend.add_argument("--last", type=_at_least(1), default=5,
                         help="baseline window: median of up to N prior "
                              "runs (default 5)")
    r_trend.add_argument("--tolerance", type=float, default=0.2,
                         help="allowed fractional deviation from the "
                              "baseline median (default 0.2)")
    r_trend.add_argument("--direction", choices=("higher", "lower"),
                         default="higher",
                         help="which direction is better (default higher)")
    r_trend.add_argument("--check", action="store_true",
                         help="exit nonzero on regression")

    r_val = runs_sub.add_parser(
        "validate",
        help="schema-check and re-address every ledger record, or "
             "validate report files (--schema)")
    r_val.add_argument("--schema", nargs="+", default=None,
                       metavar="FILE",
                       help="instead of the ledger, validate these JSON "
                            "report files against their embedded schema "
                            "tags (bench and cluster reports)")

    r_watch = runs_sub.add_parser(
        "watch", help="render a service job's live progress")
    r_watch.add_argument("job", help="service job id")
    r_watch.add_argument("--url", default="http://127.0.0.1:8337",
                         help="service base URL "
                              "(default http://127.0.0.1:8337)")
    r_watch.add_argument("--timeout", type=float, default=0.0,
                         help="overall deadline in seconds: exit "
                              "nonzero if the job is not terminal by "
                              "then, even while the stream stays alive "
                              "(0 = wait forever)")

    return parser


def _configure_logging(verbosity: int, force_info: bool = False) -> None:
    """Root handler to stderr; ``repro`` logger level from ``-v`` count."""
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    if force_info and level > logging.INFO:
        level = logging.INFO
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # Handlers live on the root; level control lives on the package
    # logger, so library INFO/DEBUG records propagate when requested.
    logging.getLogger("repro").setLevel(level)


def _cmd_profile(args, ctx: ExperimentContext, tel: Telemetry) -> int:
    """The ``profile`` command: one instrumented coverage session."""
    name = resolve_design(args.design)
    with tel.span("profile.setup", design=name):
        design = ctx.designs[name]
        universe = ctx.universe(name)
    gen = make_generator(resolve_generator(args.generator),
                         args.width, args.vectors)
    tracer = ZoneTracer.for_design(design, beta=args.beta)
    result = run_fault_coverage(design, gen, args.vectors, universe=universe,
                                zone_tracer=tracer)
    tracer.publish(tel)

    if args.exact:
        from .cluster.shards import grading_problem
        from .gates import gate_level_missed

        with tel.span("profile.exact", faults=args.exact, jobs=args.jobs):
            # The same stimulus the cell-level session above applied.
            _design, nl, faults, raw = grading_problem(
                ctx, name, args.generator, args.vectors, args.width)
            faults = faults[:args.exact]
            if args.jobs and args.jobs != 1:
                from .parallel.gatework import gate_level_missed_parallel

                missed = gate_level_missed_parallel(nl, raw, faults,
                                                    jobs=args.jobs)
            else:
                missed = gate_level_missed(nl, raw, faults)

    print(coverage_summary(result))
    print()
    print("span tree:")
    print(format_span_tree(tel.roots))
    vps = tel.gauge("faultsim.vectors_per_sec").value
    if vps:
        print(f"\nthroughput: {vps:,.0f} vectors/sec "
              f"({vps * universe.fault_count:,.0f} fault-vectors/sec)")
    if args.exact:
        print(f"\nexact gate-level grading: {len(faults)} faults, "
              f"{len(missed)} missed")
        for key in _GATE_COUNTERS:
            print(f"  {key:24s} {tel.counter(key).value:>12,}")
        fps = tel.gauge("gates.faults_per_sec").value
        if fps:
            print(f"  {'gates.faults_per_sec':24s} {fps:>12,.0f}")
    print()
    print(tracer.table())
    if args.export_trace:
        from .telemetry import collector_payload, write_chrome_trace

        payload = collector_payload(tel)
        events = list(payload["spans"]) + list(payload["metrics"])
        write_chrome_trace(args.export_trace, events, trace_id=tel.trace_id)
        print(f"\nwrote Chrome trace to {args.export_trace} "
              f"(load in chrome://tracing or ui.perfetto.dev)")

    import time

    # Coverage-over-test-length checkpoints (the paper's own quality
    # axis) ride along in the run record, downsampled to ~16 points.
    pts, pct = result.coverage_percent_curve()
    step = max(1, len(pts) // 16)
    curve = [(float(p), float(c) / 100.0)
             for p, c in zip(pts[::step], pct[::step])]
    if len(pts) and (not curve or curve[-1][0] != float(pts[-1])):
        curve.append((float(pts[-1]), float(pct[-1]) / 100.0))
    _ledger_append(args, build_record(
        "profile",
        config={"design": name, "generator": gen.name,
                "vectors": args.vectors, "width": args.width,
                "beta": args.beta, "exact": args.exact, "jobs": args.jobs},
        created_unix=time.time(),
        metrics=summarize_telemetry(tel) or None,
        coverage_curve=curve,
        git_sha=current_git_sha(),
        trace_id=tel.trace_id,
        extra={"coverage": float(result.coverage()),
               "missed": result.missed()}))
    return 0


def _make_cache(args):
    """The artifact cache selected by --cache-dir / --no-cache."""
    if args.no_cache:
        return None
    from .cache import ArtifactCache

    return ArtifactCache(args.cache_dir)


def _parse_grid(args):
    """Validated (designs, generator keys) lists for sweep/bench."""
    from .resolve import resolve_generator_key

    designs = resolve_names(args.designs, resolve_design)
    gens = resolve_names(args.generators, resolve_generator_key)
    if not designs or not gens:
        raise ReproError("sweep grid is empty")
    return designs, gens


def _cache_summary(cache) -> str:
    if cache is None:
        return "cache: disabled"
    s = cache.stats
    return (f"cache: {s.hits} hits / {s.misses} misses / {s.stores} stores "
            f"({cache.root})")


def _ledger_append(args, record) -> None:
    """Record a run in the ledger selected by --ledger-dir/--no-ledger.

    Best-effort: an unwritable ledger degrades to a warning, never a
    failed run — the measurement already happened.
    """
    if args.no_ledger:
        return
    try:
        ledger = RunLedger(args.ledger_dir)
        rid = ledger.append(record)
        logger.info("run %s recorded in %s", rid[:12], ledger.path)
    except Exception as exc:
        logger.warning("run-ledger append failed: %s", exc)


def _cmd_sweep(args) -> int:
    import time

    from .parallel import resolve_jobs
    from .parallel.sweep import SweepTask, run_sweep

    designs, gens = _parse_grid(args)  # fail fast on bad names
    cache = _make_cache(args)
    ctx = ExperimentContext(cache=cache)
    jobs = resolve_jobs(args.jobs)
    tasks = [SweepTask(design=d, generator=g, n_vectors=args.vectors,
                       width=ctx.config.generator_width)
             for d in designs for g in gens]
    t0 = time.perf_counter()
    results = run_sweep(ctx, tasks, jobs=jobs)
    duration = time.perf_counter() - t0
    for task, result in zip(tasks, results):
        print(f"{task.design:3s} {result.generator_name:14s} "
              f"{args.vectors:6d} vectors  "
              f"{100 * result.coverage():6.2f}%  "
              f"{result.missed():5d} missed")
    print(f"jobs={jobs}  {_cache_summary(cache)}")
    _ledger_append(args, build_record(
        "sweep",
        config={"designs": designs, "generators": gens,
                "vectors": args.vectors, "jobs": jobs,
                "cache": cache is not None},
        created_unix=time.time(),
        metrics=summarize_telemetry() or None,
        git_sha=current_git_sha(),
        duration_seconds=duration,
        extra={"results": [
            {"design": t.design, "generator": t.generator,
             "coverage": float(r.coverage()), "missed": r.missed()}
            for t, r in zip(tasks, results)]}))
    return 0


def _bench_now(args) -> float:
    """The timestamp recorded in the bench report.

    ``--now`` (or ``$REPRO_BENCH_NOW``) pins it — as a unix float or an
    ISO-8601 datetime — so re-runs produce byte-comparable reports.
    """
    import os
    import time as _time

    raw = args.now if args.now is not None else os.environ.get(
        "REPRO_BENCH_NOW")
    if raw is None:
        return _time.time()
    try:
        return float(raw)
    except ValueError:
        pass
    from datetime import datetime

    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        raise ReproError(
            f"--now must be a unix timestamp or ISO-8601 datetime, "
            f"got {raw!r}") from None


#: Counters the gate-sim benchmark and ``profile --exact`` report.
#: The last two are cone-sweep telemetry: super-gate rows evaluated,
#: and single-fanout levels absorbed into LUT super-gates at fuse time.
_GATE_COUNTERS = (
    "gates.fault_batches",
    "gates.faults_graded",
    "gates.cone_nets",
    "gates.chunks_skipped",
    "gates.faults_dropped",
    "gates.lane_vectors",
    "gates.frontier_nets",
    "gates.lut_fused_levels",
)


def _cmd_bench_gates(args) -> int:
    """``bench --gates``: the event engine against the reference oracle.

    Grades the same universe with the event engine and the
    retained pre-optimization reference, asserts both missed-fault
    lists are identical, and records per-engine rates with a
    compile/golden/grade phase split in a ``repro-bench-gatesim/3``
    report.  ``--check`` gates on ``--gates-threshold`` (event vs
    reference).
    """
    import json
    import time

    from .cluster.shards import grading_problem
    from .gates import (compiled_program, elaborate, fused_program,
                        gate_level_missed, gate_level_missed_reference)
    from .gates.compiled import golden_net_waves
    from .gates.gatesim import pack_input_bits

    name = resolve_design(args.gates_design)
    ctx = ExperimentContext()
    design, _nl, faults, raw = grading_problem(
        ctx, name, "lfsr1", args.gates_vectors,
        ctx.config.generator_width)
    if args.gates_faults:
        faults = faults[:args.gates_faults]

    def fault_key(f):
        return (f.node_id, f.bit, f.cell_fault)

    outer = get_telemetry()
    engines = {}
    missed_by_engine = {}
    event_counters = {}
    for eng in ("event", "reference"):
        # A fresh netlist per engine defeats the per-object program
        # memo, so each engine's compile phase is measured cold.
        nl_e = elaborate(design.graph)
        tel = Telemetry()
        previous = set_telemetry(tel)
        try:
            if eng == "reference":
                # The reference engine predates the pipeline split: it
                # simulates golden and grades in one pass, so the whole
                # cost lands in the grade phase.
                compile_s = golden_s = 0.0
                t0 = time.perf_counter()
                missed = gate_level_missed_reference(nl_e, raw, faults)
                grade_s = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                prog = compiled_program(nl_e)
                fused_program(prog)  # memoized; EventCones reuse it
                compile_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                waves = golden_net_waves(
                    prog, pack_input_bits(raw, len(nl_e.input_bits)))
                golden_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                missed = gate_level_missed(
                    nl_e, raw, faults, program=prog, net_waves=waves)
                grade_s = time.perf_counter() - t0
        finally:
            set_telemetry(previous)
        if eng == "event":
            event_counters = {key: tel.counter(key).value
                              for key in _GATE_COUNTERS}
        if outer.enabled:
            # Fold each isolated run's spans and counters into the
            # session collector so --profile / --trace-out sees them.
            from .telemetry import collector_payload

            outer.absorb(collector_payload(tel))
        total_s = compile_s + golden_s + grade_s
        missed_by_engine[eng] = [fault_key(f) for f in missed]
        doc = {
            "seconds": total_s,
            "faults_per_sec": len(faults) / total_s if total_s else 0.0,
            "grade_faults_per_sec": (len(faults) / grade_s
                                     if grade_s else 0.0),
            "phases": {
                "compile_seconds": compile_s,
                "golden_seconds": golden_s,
                "grade_seconds": grade_s,
            },
        }
        if eng == "event":
            doc["counters"] = event_counters
        engines[eng] = doc

    identical = missed_by_engine["event"] == missed_by_engine["reference"]
    event_s = engines["event"]["seconds"]
    speedup = engines["reference"]["seconds"] / event_s if event_s else 0.0
    report = {
        "schema": "repro-bench-gatesim/3",
        "created_unix": _bench_now(args),
        "git_sha": current_git_sha(),
        "config": {
            "design": name,
            "vectors": args.gates_vectors,
            "faults": len(faults),
        },
        "engines": engines,
        "missed": len(missed_by_engine["event"]),
        "speedups": {"event_vs_reference": speedup},
        "identical": identical,
    }
    with open(args.gates_out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # Same provenance (schema, pinned timestamp, git sha) lands in the
    # run ledger, where `repro runs trend` reads the history.  The
    # headline faults_per_sec stays the optimized-engine rate, so trend
    # history spans every schema change.
    _ledger_append(args, build_record(
        "bench-gates",
        config=report["config"],
        created_unix=report["created_unix"],
        bench={
            "faults_per_sec": engines["event"]["faults_per_sec"],
            "grade_faults_per_sec":
                engines["event"]["grade_faults_per_sec"],
            "reference_faults_per_sec":
                engines["reference"]["faults_per_sec"],
            "optimized_seconds": event_s,
            "reference_seconds": engines["reference"]["seconds"],
            "speedup": speedup,
        },
        metrics={k: float(v) for k, v in event_counters.items()},
        git_sha=report["git_sha"],
        duration_seconds=sum(e["seconds"] for e in engines.values()),
        extra={"identical": identical, "missed": report["missed"]}))

    print(f"gate-level universe: {name}, {len(faults)} faults, "
          f"{args.gates_vectors} vectors")
    for eng in ("event", "reference"):
        doc = engines[eng]
        ph = doc["phases"]
        print(f"{eng:9s}: {doc['seconds']:8.2f}s  "
              f"{doc['faults_per_sec']:10,.0f} faults/s  "
              f"(compile {ph['compile_seconds']:.2f}s, golden "
              f"{ph['golden_seconds']:.2f}s, grade "
              f"{ph['grade_seconds']:.2f}s)  "
              f"missed {len(missed_by_engine[eng])}")
    print(f"speedup:  event/reference {speedup:.2f}x   "
          f"identical: {identical}   wrote {args.gates_out}")

    if args.check:
        if not identical:
            print("bench check FAILED: engine verdicts differ",
                  file=sys.stderr)
            return 1
        if speedup < args.gates_threshold:
            print(f"bench check FAILED: event/reference speedup "
                  f"{speedup:.2f} below threshold "
                  f"{args.gates_threshold:.2f}", file=sys.stderr)
            return 1
        print(f"bench check passed: event/reference {speedup:.2f} >= "
              f"{args.gates_threshold:.2f}")
    return 0


def _cmd_bench(args) -> int:
    return _cmd_bench_gates(args) if args.gates else _cmd_bench_grid(args)


def _cmd_bench_grid(args) -> int:
    import json
    import time

    import numpy as np

    from .parallel import resolve_jobs
    from .parallel.sweep import SweepTask, run_sweep

    designs, gens = _parse_grid(args)  # fail fast on bad names
    # No cache: timed sessions must grade, not load.
    ctx = ExperimentContext()
    jobs = resolve_jobs(args.jobs)

    t0 = time.perf_counter()
    for d in designs:
        ctx.universe(d)
    setup_seconds = time.perf_counter() - t0

    tasks = [SweepTask(design=d, generator=g, n_vectors=args.vectors,
                       width=ctx.config.generator_width)
             for d in designs for g in gens]

    t0 = time.perf_counter()
    serial = run_sweep(ctx, tasks, jobs=1)
    serial_seconds = time.perf_counter() - t0

    ctx.reset_coverage()
    t0 = time.perf_counter()
    parallel = run_sweep(ctx, tasks, jobs=jobs)
    parallel_seconds = time.perf_counter() - t0

    identical = all(np.array_equal(s.detect_time, p.detect_time)
                    for s, p in zip(serial, parallel))
    total_vectors = sum(t.n_vectors for t in tasks)
    total_faults = sum(r.universe.fault_count for r in serial)

    def rates(seconds: float):
        return {
            "seconds": seconds,
            "vectors_per_sec": total_vectors / seconds if seconds else 0.0,
            "faults_per_sec": total_faults / seconds if seconds else 0.0,
            "sessions_per_sec": len(tasks) / seconds if seconds else 0.0,
        }

    report = {
        "schema": "repro-bench-parallel/1",
        "created_unix": _bench_now(args),
        "git_sha": current_git_sha(),
        "config": {
            "designs": designs,
            "generators": gens,
            "vectors": args.vectors,
            "jobs": jobs,
        },
        "grid": {
            "sessions": len(tasks),
            "total_vectors": total_vectors,
            "total_faults": total_faults,
        },
        "setup_seconds": setup_seconds,
        "serial": rates(serial_seconds),
        "parallel": dict(rates(parallel_seconds), jobs=jobs),
        "speedup": (serial_seconds / parallel_seconds
                    if parallel_seconds else 0.0),
        "identical": identical,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"grid: {len(tasks)} sessions "
          f"({len(designs)} designs x {len(gens)} generators, "
          f"{args.vectors} vectors)")
    print(f"serial:   {serial_seconds:8.2f}s  "
          f"{report['serial']['vectors_per_sec']:12,.0f} vectors/s  "
          f"{report['serial']['faults_per_sec']:12,.0f} faults/s")
    print(f"parallel: {parallel_seconds:8.2f}s  "
          f"{report['parallel']['vectors_per_sec']:12,.0f} vectors/s  "
          f"{report['parallel']['faults_per_sec']:12,.0f} faults/s  "
          f"(jobs={jobs})")
    print(f"speedup:  {report['speedup']:.2f}x   "
          f"identical: {identical}   wrote {args.out}")

    _ledger_append(args, build_record(
        "bench-parallel",
        config=report["config"],
        created_unix=report["created_unix"],
        bench={
            "faults_per_sec": report["parallel"]["faults_per_sec"],
            "vectors_per_sec": report["parallel"]["vectors_per_sec"],
            "serial_faults_per_sec": report["serial"]["faults_per_sec"],
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": report["speedup"],
        },
        git_sha=report["git_sha"],
        duration_seconds=setup_seconds + serial_seconds + parallel_seconds,
        extra={"identical": identical, "grid": report["grid"]}))

    if args.check:
        if not identical:
            print("bench check FAILED: parallel results differ from serial",
                  file=sys.stderr)
            return 1
        ratio = report["speedup"]
        if ratio < args.threshold:
            print(f"bench check FAILED: parallel/serial throughput ratio "
                  f"{ratio:.2f} below threshold {args.threshold:.2f}",
                  file=sys.stderr)
            return 1
        print(f"bench check passed: ratio {ratio:.2f} >= "
              f"{args.threshold:.2f}")
    return 0


def _cmd_recommend(args) -> int:
    """``recommend``: best generator for a design, predictor-first."""
    import json

    from .schedule import recommend_generator

    candidates = None
    if args.candidates:
        candidates = resolve_names(args.candidates, resolve_generator)
        if not candidates:
            raise ReproError("empty --candidates list")
    ctx = ExperimentContext(cache=_make_cache(args))
    out = recommend_generator(
        ctx, args.design, vectors=args.vectors, top_k=args.top_k,
        confirm_vectors=args.confirm_vectors,
        confirm_faults=args.confirm_faults, bins=args.bins,
        candidates=candidates)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"recommendation for {out['design']} "
          f"({out['fault_count']} behavioral faults, "
          f"{out['vectors']}-vector sessions):")
    for c in out["candidates"]:
        marker = "*" if c["generator"] == out["best"] else " "
        print(f" {marker} {c['name']:14s} rank {c['analytic_rank']}  "
              f"predicted coverage {100 * c['predicted_coverage']:6.2f}%  "
              f"ratio {c['compatibility_ratio']:7.3f}  {c['rating']}")
    for c in out["confirmed"]:
        print(f"   confirmed {c['generator']:8s} "
              f"{100 * c['coverage']:6.2f}% of {c['faults']} gate-level "
              f"faults at {c['vectors']} vectors")
    print(f"best: {out['best']}")
    return 0


def _cmd_serve(args) -> int:
    from .service import EvaluationService, ServiceConfig
    from .telemetry import RequestLogSink, get_telemetry

    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, result_ttl=args.result_ttl,
        drain_deadline=args.drain_deadline,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        ledger_dir=args.ledger_dir, no_ledger=args.no_ledger,
        events_keepalive=args.events_keepalive)

    telemetry = None
    if args.access_log:
        # The service needs its own collector even when --profile is
        # off: the access log rides on 'request' telemetry events.
        sink = RequestLogSink(args.access_log)
        try:
            sink.open()
        except OSError as exc:
            print(f"repro: cannot open access log: {exc}", file=sys.stderr)
            return 2
        current = get_telemetry()
        if isinstance(current, Telemetry):
            current.sinks.append(sink)  # --profile/--trace-out is active
        else:
            telemetry = Telemetry(sinks=[sink])

    EvaluationService(config, telemetry=telemetry).run()
    return 0


def _runs_ledger(args) -> RunLedger:
    return RunLedger(args.ledger_dir)


def _headline_metric(record) -> str:
    """The one number worth a column in ``runs list``."""
    for label, path in (("faults/s", "faults_per_sec"),
                        ("coverage", "coverage"),
                        ("speedup", "speedup"),
                        ("seconds", "duration_seconds")):
        value = metric_value(record, path)
        if value is None and path in record \
                and isinstance(record[path], (int, float)) \
                and not isinstance(record[path], bool):
            value = float(record[path])
        if value is not None:
            if label == "faults/s":
                return f"{label}={value:,.0f}"
            return f"{label}={value:.4g}"
    return "-"


def _cmd_runs_list(args) -> int:
    from datetime import datetime, timezone

    records = _runs_ledger(args).tail(args.last, kind=args.kind)
    if not records:
        print(f"no runs recorded in {_runs_ledger(args).path}")
        return 0
    for record in records:
        created = datetime.fromtimestamp(
            float(record["created_unix"]),
            tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
        sha = str(record.get("git_sha") or "-")[:8]
        print(f"{str(record['id'])[:12]}  {record['kind']:<14s} "
              f"{created}Z  {sha:<8s}  {_headline_metric(record)}")
    return 0


def _cmd_runs_show(args) -> int:
    import json

    print(json.dumps(_runs_ledger(args).get(args.run), indent=2,
                     sort_keys=True))
    return 0


def _flatten_numeric(node, prefix=""):
    """Dotted-path -> float map over a record's nested dicts."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(_flatten_numeric(value, f"{prefix}{key}."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = float(node)
    return out


def _cmd_runs_compare(args) -> int:
    ledger = _runs_ledger(args)
    rec_a, rec_b = ledger.get(args.run_a), ledger.get(args.run_b)
    flat_a = _flatten_numeric({k: rec_a.get(k)
                               for k in ("bench", "metrics",
                                         "duration_seconds", "coverage",
                                         "missed", "speedup")})
    flat_b = _flatten_numeric({k: rec_b.get(k)
                               for k in ("bench", "metrics",
                                         "duration_seconds", "coverage",
                                         "missed", "speedup")})
    print(f"A: {str(rec_a['id'])[:12]} ({rec_a['kind']})   "
          f"B: {str(rec_b['id'])[:12]} ({rec_b['kind']})")
    if rec_a.get("config_fingerprint") != rec_b.get("config_fingerprint"):
        print("note: configs differ (fingerprints do not match)")
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key), flat_b.get(key)
        if va is None or vb is None:
            print(f"  {key:<40s} "
                  f"{'-' if va is None else f'{va:,.4g}':>14s} -> "
                  f"{'-' if vb is None else f'{vb:,.4g}':>14s}")
            continue
        delta = f"{100.0 * (vb - va) / va:+.1f}%" if va else "n/a"
        print(f"  {key:<40s} {va:>14,.4g} -> {vb:>14,.4g}  {delta}")
    return 0


def _cmd_runs_trend(args) -> int:
    from datetime import datetime, timezone

    records = _runs_ledger(args).records(kind=args.kind)
    history = [(r, metric_value(r, args.metric)) for r in records]
    history = [(r, v) for r, v in history if v is not None]
    for record, value in history[-(args.last + 1):]:
        created = datetime.fromtimestamp(
            float(record["created_unix"]),
            tz=timezone.utc).strftime("%Y-%m-%d %H:%M")
        print(f"  {str(record['id'])[:12]}  {created}Z  "
              f"{args.metric} = {value:,.4g}")
    report = trend_check(records, args.metric, last=args.last,
                         tolerance=args.tolerance,
                         direction=args.direction)
    print(report.describe())
    if args.check and not report.ok:
        return 1
    return 0


def _cmd_runs_validate(args) -> int:
    if args.schema:
        from .reports import validate_report_files

        for line in validate_report_files(args.schema):
            print(line)
        return 0
    ledger = _runs_ledger(args)
    records = ledger.records(validate=True)  # raises on any bad line
    kinds: dict = {}
    for record in records:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    breakdown = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
    print(f"{len(records)} valid record(s) in {ledger.path}"
          + (f" ({breakdown})" if breakdown else ""))
    return 0


def _cmd_runs_watch(args) -> int:
    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, client_id="repro-runs-watch")
    is_tty = sys.stdout.isatty()

    def render(stream: str, doc) -> None:
        done, total = doc.get("done"), doc.get("total")
        head = f"[{stream}] {done:g}" if done is not None else f"[{stream}]"
        if total:
            head += f"/{total:g}"
        parts = [head]
        if doc.get("fraction") is not None:
            parts.append(f"{100.0 * doc['fraction']:5.1f}%")
        if doc.get("coverage") is not None:
            parts.append(f"coverage={doc['coverage']:.4f}")
        if doc.get("eta_seconds") is not None:
            parts.append(f"eta={doc['eta_seconds']:.0f}s")
        line = "  ".join(parts)
        if is_tty:
            print("\r" + line.ljust(76), end="", flush=True)
        else:
            print(line)

    import time

    # --timeout is an overall deadline: a live stream that only sends
    # keepalives (a hung job) must still fail by then, so the clock is
    # checked both here per event and inside the stream reader per
    # received line (client.events deadline=).
    deadline = (time.monotonic() + args.timeout
                if args.timeout > 0 else None)
    timed_out = False
    final_state = None
    try:
        for event in client.events(args.job, deadline=args.timeout
                                   if args.timeout > 0 else None):
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                break
            name, data = event.get("event"), event.get("data", {})
            if name == "progress":
                render(str(data.get("stream", "progress")), data)
            elif name == "job":
                state = data.get("state")
                for stream, doc in sorted(
                        (data.get("progress") or {}).items()):
                    render(stream, doc)
                if state in ("done", "failed", "cancelled"):
                    final_state = state
                    break
            elif name == "shutdown":
                break
    except (ServiceClientError, OSError) as exc:
        # A stream that fails before the deadline (a refused
        # connection, an unknown job, a silent socket) ends the watch.
        if deadline is None or time.monotonic() < deadline:
            if isinstance(exc, ServiceClientError) and exc.status == 404:
                print(f"repro: no such job {args.job!r} at {args.url}",
                      file=sys.stderr)
            else:
                print(f"repro: event stream of job {args.job} at "
                      f"{args.url} failed: {exc}", file=sys.stderr)
            return 1
        timed_out = True
    if is_tty:
        print()
    if timed_out:
        print(f"repro: job {args.job} not terminal after "
              f"{args.timeout:g}s (--timeout)", file=sys.stderr)
        return 1
    if final_state is None:
        try:
            final_state = str(client.job(args.job).get("state", "unknown"))
        except (ServiceClientError, OSError):
            final_state = "unknown"
    print(f"job {args.job}: {final_state}")
    return 0 if final_state == "done" else 1


def _cmd_runs(args) -> int:
    handler = {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "compare": _cmd_runs_compare,
        "trend": _cmd_runs_trend,
        "validate": _cmd_runs_validate,
        "watch": _cmd_runs_watch,
    }[args.runs_command]
    return handler(args)


def _cmd_cluster(args) -> int:
    import json
    import time

    from .cluster import run_cluster_sweep

    cache = _make_cache(args)
    report = run_cluster_sweep(
        args.endpoints,
        design=args.design, generator=args.generator,
        vectors=args.vectors, width=args.width,
        faults_limit=args.faults, shard_faults=args.shard_faults,
        misr_width=args.misr_width, shard_timeout=args.shard_timeout,
        max_retries=args.max_retries, poll=args.poll,
        verify=args.verify, cache=cache)
    doc = report.to_doc()
    merged = report.merged
    print(f"cluster sweep: {doc['params']['design']} x "
          f"{doc['params']['generator']}  {doc['params']['vectors']} "
          f"vectors  {merged.total} faults")
    print(f"  coverage {100.0 * merged.coverage:6.2f}%  "
          f"({merged.total - merged.detected} missed)  "
          f"signature {doc['signature']}")
    print(f"  {doc['shards']} shard(s), {doc['attempts']} attempt(s), "
          f"{doc['retries']} retried  in {doc['elapsed_seconds']:.2f}s")
    for worker in doc["workers"]:
        print(f"  worker {worker['endpoint']}: {worker['state']}, "
              f"{worker['shards']} shard(s), {worker['faults']} faults, "
              f"{worker['busy_seconds']:.2f}s busy, "
              f"{worker['failures']} failure(s)")
    if report.verified is not None:
        print(f"  single-node verify: "
              f"{'identical' if report.verified else 'DIVERGED'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote cluster report to {args.out}")
    # The throughput headline (merged faults over wall-clock) is what
    # `repro runs trend --check` gates on across cluster-sweep history.
    _ledger_append(args, build_record(
        "cluster-sweep",
        config=dict(doc["params"], endpoints=sorted(set(args.endpoints)),
                    shard_faults=args.shard_faults),
        created_unix=time.time(),
        metrics=summarize_telemetry() or None,
        git_sha=current_git_sha(),
        duration_seconds=report.elapsed_seconds,
        coverage_curve=[(t, c) for t, c in merged.checkpoints],
        bench={"faults_per_sec": (merged.total
                                  / report.elapsed_seconds
                                  if report.elapsed_seconds else 0.0)},
        extra={"coverage": float(merged.coverage),
               "missed": merged.total - merged.detected,
               "signature": doc["signature"],
               "shards": doc["shards"],
               "attempts": doc["attempts"],
               "retries": doc["retries"],
               "workers": doc["workers"],
               "shard_timings": doc["shard_timings"]}))
    return 0


def _dispatch(args, tel: Optional[Telemetry]) -> int:
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "recommend":
        return _cmd_recommend(args)

    ctx = ExperimentContext()

    if args.command == "stats":
        for name, design in ctx.designs.items():
            s = design_statistics(design)
            print(f"{name}: {s.adders} operators, {s.registers} registers, "
                  f"in {s.input_width}b / coef {s.coefficient_width}b / "
                  f"out {s.output_width}b, {s.faults} faults "
                  f"({s.uncollapsed_faults} uncollapsed)")
        return 0

    if args.command == "grade":
        name = resolve_design(args.design)
        design = ctx.designs[name]
        gen = make_generator(resolve_generator(args.generator),
                             args.width, args.vectors)
        result = run_fault_coverage(design, gen, args.vectors,
                                    universe=ctx.universe(name))
        print(coverage_summary(result))
        if args.map:
            print(missed_fault_map(result))
        if args.report:
            from .faultsim.report import testability_report
            print(testability_report(design, result))
        return 0

    if args.command == "rank":
        name = resolve_design(args.design)
        design = ctx.designs[name]
        print(f"compatibility with {name}:")
        for r in rank_generators(design):
            print(f"  {r.generator.name:12s} {r.rating}  {r.ratio:7.3f}")
        scheme = propose_scheme(design, n_vectors=args.vectors)
        print(f"proposed scheme: {scheme.name}")
        return 0

    if args.command == "spectrum":
        gen = make_generator(resolve_generator(args.generator),
                             args.width, 4096)
        freqs, power = generator_spectrum(gen)
        step = max(1, len(freqs) // args.points)
        print(series_block(freqs[::step], power_db(power[::step]),
                           "freq", "power (dB)", title=gen.name))
        return 0

    if args.command == "table":
        print(_TABLES[args.number](ctx).render())
        return 0

    if args.command == "figure":
        fig = _FIGURES[args.number]
        result = fig() if args.number == 1 else fig(ctx)
        print(result.render())
        return 0

    if args.command == "report":
        if args.trace:
            import os.path

            from .telemetry import load_trace, write_run_report

            out = args.out
            if out == "reproduction_report.md":  # the markdown default
                out = os.path.splitext(args.trace)[0] + ".html"
            events = load_trace(args.trace)
            write_run_report(
                out, events,
                title=f"repro run report — {os.path.basename(args.trace)}")
            print(f"wrote {out}")
            return 0
        from .experiments.report import save_report
        include = None
        if args.only == "tables":
            include = ["Table"]
        elif args.only == "figures":
            include = ["Figure"]
        save_report(args.out, ctx, include=include)
        print(f"wrote {args.out}")
        return 0

    if args.command == "export":
        name = resolve_design(args.design)
        design = ctx.designs[name]
        if args.format == "json":
            from .rtl import save_design
            save_design(design, args.out)
        else:
            from .gates import elaborate, save_verilog
            save_verilog(elaborate(design.graph), args.out,
                         module_name=f"{name.lower()}_cut")
        print(f"wrote {args.out}")
        return 0

    if args.command == "profile":
        assert tel is not None  # the profile command always collects
        return _cmd_profile(args, ctx, tel)

    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    summary_to_log = args.profile and args.command != "profile"
    _configure_logging(args.verbose, force_info=summary_to_log)
    profiling = bool(args.profile or args.trace_out
                     or args.command == "profile")

    tel: Optional[Telemetry] = None
    previous = None
    if profiling:
        sinks = []
        if args.trace_out:
            trace_sink = JsonlSink(args.trace_out)
            try:
                trace_sink.open()
            except OSError as exc:
                print(f"repro: cannot open trace file: {exc}",
                      file=sys.stderr)
                return 2
            sinks.append(trace_sink)
        if summary_to_log:
            sinks.append(LoggingSummarySink())
        tel = Telemetry(sinks=sinks)
        previous = set_telemetry(tel)
        logger.debug("telemetry enabled (command=%s)", args.command)

    try:
        return _dispatch(args, tel)
    except ReproError as exc:
        # One-line diagnosis (unknown design/generator names, bad grid
        # specs, ...) instead of a traceback; exit code 2 like argparse.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    finally:
        if profiling:
            set_telemetry(previous)
            tel.flush()
            tel.close()
            if args.trace_out:
                logger.info("wrote telemetry trace to %s", args.trace_out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
