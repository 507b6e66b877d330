"""Telemetry wired through the pipeline: spans, counters, zone tracing.

Covers the instrumented fault-coverage engine, the zone tracer's
agreement with :mod:`repro.analysis.testzones`, the MISR aliasing
counters, and the CLI surface (``profile``, ``--profile``,
``--trace-out``, ``--version``).
"""

import json
import logging
from collections import Counter

import numpy as np
import pytest

from repro.analysis.testzones import test_zones as zone_intervals
from repro.cli import main
from repro.faultsim import build_fault_universe, run_fault_coverage
from repro.generators import Type1Lfsr
from repro.generators.base import match_width
from repro.rtl.simulate import simulate
from repro.telemetry import ZoneTracer, get_telemetry, telemetry_session


def _span_names(spans, out=None):
    out = out if out is not None else set()
    for sp in spans:
        out.add(sp.name)
        _span_names(sp.children, out)
    return out


class TestEngineInstrumentation:
    def test_run_fault_coverage_emits_expected_spans(self, small_design):
        universe = build_fault_universe(small_design.graph,
                                        name=small_design.name)
        with telemetry_session() as tel:
            result = run_fault_coverage(small_design, Type1Lfsr(10), 128,
                                        universe=universe)
        names = _span_names(tel.roots)
        assert {"faultsim.run", "faultsim.generate", "generators.sequence",
                "faultsim.track", "rtl.simulate",
                "faultsim.classify"} <= names
        # nesting: track owns the datapath simulation
        run = tel.roots[0]
        assert run.name == "faultsim.run"
        track = next(c for c in run.children if c.name == "faultsim.track")
        assert "rtl.simulate" in {c.name for c in track.children}
        # metrics
        metrics = tel.metrics()
        assert metrics["faultsim.vectors"].value == 128
        assert metrics["faultsim.sessions"].value == 1
        assert metrics["faultsim.faults_graded"].value == universe.fault_count
        assert metrics["faultsim.vectors_per_sec"].value > 0
        assert metrics["rtl.node_cycles"].value > 0
        latencies = {n[len("faultsim.detect_latency."):]: m.count
                     for n, m in metrics.items()
                     if n.startswith("faultsim.detect_latency.")}
        assert latencies
        assert sum(latencies.values()) == result.detected()
        # One histogram per class name, counting that name's detected faults.
        by_name = Counter(f.cell_fault.name for f in universe.faults
                          if result.detect_time[f.index] < result.n_vectors)
        assert latencies == dict(by_name)

    def test_universe_build_span_only_when_needed(self, small_design):
        with telemetry_session() as tel:
            run_fault_coverage(small_design, Type1Lfsr(10), 32)
        assert "faultsim.build_universe" in _span_names(tel.roots)

    def test_pipeline_untouched_without_collector(self, small_design):
        assert not get_telemetry().enabled
        universe = build_fault_universe(small_design.graph)
        result = run_fault_coverage(small_design, Type1Lfsr(10), 64,
                                    universe=universe)
        assert result.n_vectors == 64


def _spans_named(spans, name, parent=None, out=None):
    """``(span, parent)`` of every span called ``name`` in the forest."""
    out = out if out is not None else []
    for sp in spans:
        if sp.name == name:
            out.append((sp, parent))
        _spans_named(sp.children, name, sp, out)
    return out


class TestStageSpans:
    """Every stage of an exact grade and of a cached sweep is a span, so
    the span tree alone says where a run's time went."""

    def test_traced_exact_grade(self, small_design, tmp_path):
        from repro.cache import ArtifactCache
        from repro.gates import (elaborate, enumerate_cell_faults,
                                 gate_level_missed)

        raw = Type1Lfsr(small_design.input_fmt.width).sequence(64)
        with telemetry_session() as tel:
            nl = elaborate(small_design.graph)
            faults = enumerate_cell_faults(small_design.graph, nl)
            gate_level_missed(nl, raw, faults[:128],
                              cache=ArtifactCache(tmp_path / "cache"))
        names = _span_names(tel.roots)
        assert {"gates.elaborate", "gates.enumerate",
                "faultsim.build_universe", "gates.compile", "gates.golden",
                "cache.load", "cache.store", "gates.fault_batch"} <= names
        ((universe, parent),) = _spans_named(tel.roots,
                                             "faultsim.build_universe")
        assert parent.name == "gates.enumerate"
        assert universe.attrs["faults"] == len(faults)
        assert [p.name for _s, p in _spans_named(tel.roots, "cache.load")] \
            == ["gates.compile"]
        ((_compile, grade),) = _spans_named(tel.roots, "gates.compile")
        assert grade.name == "gates.fault_parallel"

    def test_cached_sweep(self, tmp_path):
        from repro.cache import ArtifactCache
        from repro.experiments import ExperimentContext
        from repro.parallel import SweepTask, run_sweep

        ctx = ExperimentContext(cache=ArtifactCache(tmp_path / "cache"))
        with telemetry_session() as tel:
            run_sweep(ctx, [SweepTask("LP", "LFSR-1", 64)], jobs=1)
        names = _span_names(tel.roots)
        assert {"faultsim.build_universe", "cache.load",
                "cache.store"} <= names
        kinds = {sp.attrs["kind"]
                 for sp, _p in _spans_named(tel.roots, "cache.store")}
        assert {"design", "coverage"} <= kinds


class TestZoneTracer:
    BETA = 0.25
    VECTORS = 256

    def test_counts_match_direct_zone_arithmetic(self, small_design):
        """Tracer counts must equal zone membership computed straight from
        the simulated operands and analysis.testzones intervals."""
        nodes = [n.nid for n in small_design.graph.arithmetic_nodes]
        tracer = ZoneTracer(nodes, beta=self.BETA)
        gen = Type1Lfsr(10)
        with telemetry_session():
            run_fault_coverage(small_design, gen, self.VECTORS,
                               zone_tracer=tracer)

        # Recompute expected counts from the raw operand waveforms.
        raw = match_width(gen.sequence(self.VECTORS), gen.width,
                          small_design.input_fmt.width)
        captured = {}

        def capture(node, a, b):
            captured[node.nid] = (node.fmt.normalize(a), node.fmt.normalize(b))

        simulate(small_design.graph, raw, adder_hook=capture)
        zones = zone_intervals(self.BETA)
        assert list(zones) == tracer.labels
        for nid in nodes:
            av, bv = captured[nid]
            primary = av if av.var() >= bv.var() else bv
            expected = [int(((primary >= lo) & (primary < hi)).sum())
                        for lo, hi in zones.values()]
            assert list(tracer.hits[nid]) == expected
            assert tracer.totals[nid] == self.VECTORS
            rates = tracer.hit_rates(nid)
            assert sum(rates.values()) <= 1.0 + 1e-12  # zones are disjoint

    def test_for_design_maps_taps(self, small_design):
        tracer = ZoneTracer.for_design(small_design)
        accs = {t.accumulator for t in small_design.taps
                if t.accumulator is not None}
        assert tracer.nodes == accs
        table = tracer.table()
        assert "test-zone hit rates" in table
        for label in ("T1a", "T2b", "T5b", "T6a"):
            assert label in table

    def test_publish_records_counters(self, small_design):
        tracer = ZoneTracer.for_design(small_design)
        with telemetry_session() as tel:
            run_fault_coverage(small_design, Type1Lfsr(10), 64,
                               zone_tracer=tracer)
            tracer.publish(tel)
        metrics = tel.metrics()
        nid = next(iter(tracer.nodes))
        assert metrics[f"testzones.node{nid}.vectors"].value == 64
        zone_total = sum(metrics[f"testzones.node{nid}.{label}"].value
                         for label in tracer.labels)
        assert zone_total == int(tracer.hits[nid].sum())


class TestBistCounters:
    def test_screen_fault_counts_sessions(self, small_design):
        from repro.bist.session import BistSession

        session = BistSession(design=small_design, generator=Type1Lfsr(10),
                              n_vectors=64)
        fault = session.universe.faults[0]
        with telemetry_session() as tel:
            outcome = session.screen_fault(fault)
        metrics = tel.metrics()
        assert metrics["bist.faults_screened"].value == 1
        assert metrics["bist.misr.words_absorbed"].value >= 64
        aliased = metrics.get("bist.misr.aliasing_events")
        # an aliasing event implies the signature matched gold
        if aliased is not None and aliased.value:
            assert outcome.passed


class TestCliTelemetry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_profile_command(self, capsys):
        assert main(["profile", "LP", "lfsr1", "--vectors", "128"]) == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "faultsim.run" in out
        assert "faultsim.track" in out
        assert "vectors/sec" in out
        assert "test-zone hit rates" in out
        assert "T1a" in out and "T5b" in out
        assert get_telemetry().enabled is False  # restored after the run

    def test_profile_flag_logs_summary(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            assert main(["--profile", "grade", "--design", "LP",
                         "--generator", "lfsr1", "--vectors", "64"]) == 0
        summary = "\n".join(r.getMessage() for r in caplog.records)
        assert "telemetry summary" in summary
        assert "faultsim.run" in summary

    def test_trace_out_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["--trace-out", str(path), "grade", "--design", "LP",
                     "--generator", "lfsr1", "--vectors", "64"]) == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events
        spans = [e for e in events if e["type"] == "span"]
        assert "faultsim.run" in {e["name"] for e in spans}
        counters = {e["name"]: e["value"]
                    for e in events if e["type"] == "counter"}
        assert counters["faultsim.vectors"] == 64
