"""Exporters and run reports: Chrome trace, Prometheus text, HTML.

The round-trip tests drive a *real* two-process ``parallel_map`` run
through a JSONL sink, read the file back, and assert the exported
Chrome trace preserves every span losslessly; the Prometheus output is
held to a strict line-format checker (TYPE before samples, cumulative
``+Inf``-terminated buckets).
"""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.errors import TelemetryError
from repro.parallel import parallel_map
from repro.telemetry import (
    Histogram,
    InMemorySink,
    JsonlSink,
    Telemetry,
    chrome_trace_document,
    chrome_trace_events,
    get_telemetry,
    load_trace,
    prometheus_exposition,
    reconstruct_spans,
    render_run_report,
    set_telemetry,
    write_chrome_trace,
    write_run_report,
)
from repro.telemetry.export import prometheus_name


def _pool_work(x):
    tel = get_telemetry()
    with tel.span("work.item", x=x):
        tel.counter("work.items").add(1)
    return x + 1


@pytest.fixture()
def pool_trace(tmp_path):
    """JSONL events from a real 2-process pooled run."""
    path = tmp_path / "run.jsonl"
    tel = Telemetry(sinks=[JsonlSink(str(path))])
    previous = set_telemetry(tel)
    try:
        parallel_map(_pool_work, list(range(6)), jobs=2, chunk_size=2,
                     label="parallel.export")
    finally:
        set_telemetry(previous)
        tel.flush()
        tel.close()
    return load_trace(str(path))


# ----------------------------------------------------------------------
# Histogram percentiles
# ----------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_summary_keys(self):
        h = Histogram("t")
        h.observe_many([0.001, 0.002, 0.02, 0.3, 2.0])
        summary = h.summary()
        assert sorted(summary) == ["p50", "p90", "p99"]
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_bounded_by_observed_range(self):
        h = Histogram("t", edges=[10.0, 20.0])
        h.observe_many([12.0, 13.0, 14.0])
        for q in (0.01, 0.5, 0.99, 1.0):
            assert 12.0 <= h.percentile(q) <= 14.0

    def test_uniform_data_median(self):
        h = Histogram("t", edges=[i / 10 for i in range(1, 10)])
        h.observe_many([i / 100 for i in range(100)])
        assert h.percentile(0.5) == pytest.approx(0.5, abs=0.1)

    def test_invalid_quantile(self):
        h = Histogram("t")
        for q in (0.0, -1.0, 1.5):
            with pytest.raises(TelemetryError):
                h.percentile(q)

    def test_empty_is_zero(self):
        assert Histogram("t").percentile(0.5) == 0.0

    def test_merge_event(self):
        a, b = Histogram("t"), Histogram("t")
        a.observe_many([0.001, 0.5])
        b.observe_many([0.02, 3.0])
        a.merge_event(b.to_event())
        assert a.count == 4
        assert a.min == 0.001 and a.max == 3.0
        assert a.total == pytest.approx(3.521)

    def test_merge_rejects_different_edges(self):
        a = Histogram("t", edges=[1.0])
        b = Histogram("t", edges=[2.0])
        b.observe(0.5)
        with pytest.raises(TelemetryError):
            a.merge_event(b.to_event())

    def test_merge_empty_event_keeps_minmax(self):
        a = Histogram("t")
        a.observe(1.0)
        a.merge_event(Histogram("t").to_event())
        assert a.count == 1 and a.min == 1.0 and a.max == 1.0

    def test_event_carries_quantiles(self):
        h = Histogram("t")
        h.observe_many([0.1, 0.2])
        event = h.to_event()
        assert {"p50", "p90", "p99"} <= set(event)
        assert "p50" not in Histogram("t").to_event()

    def test_render_includes_quantiles(self):
        tel = Telemetry()
        tel.histogram("lat").observe_many([0.001, 0.01, 0.1])
        assert "p50=" in tel.render() and "p99=" in tel.render()


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_required_fields_on_every_event(self, pool_trace):
        events = chrome_trace_events(pool_trace)
        assert events
        for e in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in e, f"{key} missing from {e}"

    def test_round_trip_is_lossless(self, pool_trace):
        """JSONL -> reconstruct_spans == JSONL -> Chrome -> spans."""
        direct = reconstruct_spans(pool_trace)
        doc = chrome_trace_document(pool_trace)
        restored = {}
        for e in doc["traceEvents"]:
            if e["ph"] != "X":
                continue
            restored[e["args"]["id"]] = e
        flat = {}

        def index(span):
            flat[span.sid] = span
            for child in span.children:
                index(child)

        for root in direct:
            index(root)
        assert set(restored) == set(flat)
        for sid, span in flat.items():
            e = restored[sid]
            assert e["name"] == span.name
            assert e["pid"] == span.pid
            assert e["args"]["parent"] == span.parent_id
            assert e["ts"] == pytest.approx(span.start * 1e6)
            assert e["dur"] == pytest.approx(span.duration * 1e6)
            for key, value in span.attrs.items():
                assert e["args"][key] == value

    def test_multi_process_tracks_labelled(self, pool_trace):
        doc = chrome_trace_document(pool_trace)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        span_pids = {e["pid"] for e in doc["traceEvents"]
                     if e["ph"] == "X"}
        assert len(meta) == len(span_pids) >= 2  # parent + worker(s)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace_id"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path, pool_trace):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), pool_trace)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_error_spans_marked(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("no")
        (e,) = [e for e in chrome_trace_events(sink.events)
                if e["ph"] == "X"]
        assert "RuntimeError" in e["args"]["error"]


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary)$")


def check_exposition(text):
    """Strict structural check of the exposition format; returns the
    metric families seen."""
    assert text.endswith("\n")
    families = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), line
            continue
        if line.startswith("# TYPE"):
            m = _TYPE_RE.match(line)
            assert m, line
            current = m.group(1)
            assert current not in families, f"duplicate TYPE {current}"
            families[current] = {"type": m.group(2), "samples": []}
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        name = line.split("{")[0].split(" ")[0]
        # A sample belongs to the longest family base that prefixes it
        # (so `x_quantiles{...}` goes to `x_quantiles`, not `x`).
        matches = [base for base in families
                   if name == base or name.startswith(base + "_")]
        assert matches, f"sample before TYPE: {line!r}"
        owner = families[max(matches, key=len)]
        value = line.rsplit(" ", 1)[1]
        float(value)  # must parse
        owner["samples"].append(line)
    return families


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("cache.l1.hits") == "repro_cache_l1_hits"
        assert prometheus_name("weird-name!x", prefix="") == "weird_name_x"
        assert prometheus_name("9lives", prefix="")[0] == "_"

    def test_counter_gauge_families(self):
        events = [
            {"type": "counter", "name": "service.requests", "value": 4},
            {"type": "gauge", "name": "queue.depth", "value": 2.5},
            {"type": "gauge", "name": "unset.gauge", "value": None},
        ]
        families = check_exposition(prometheus_exposition(events))
        assert families["repro_service_requests_total"]["type"] == "counter"
        assert families["repro_queue_depth"]["type"] == "gauge"
        assert not any("unset" in name for name in families)

    def test_histogram_buckets_cumulative_with_inf(self):
        h = Histogram("lat", edges=[0.01, 0.1, 1.0])
        h.observe_many([0.005, 0.05, 0.05, 0.5, 2.0])
        text = prometheus_exposition([h.to_event()])
        families = check_exposition(text)
        hist = families["repro_lat"]
        assert hist["type"] == "histogram"
        buckets = [line for line in hist["samples"] if "_bucket" in line]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1].startswith('repro_lat_bucket{le="+Inf"}')
        assert counts[-1] == 5
        (sum_line,) = [s for s in hist["samples"]
                       if s.startswith("repro_lat_sum ")]
        assert float(sum_line.split(" ")[1]) == pytest.approx(2.605)
        assert "repro_lat_count 5" in text
        summary = families["repro_lat_quantiles"]
        assert summary["type"] == "summary"
        quantiles = [line for line in summary["samples"]
                     if "quantile=" in line]
        assert [q.split('"')[1] for q in quantiles] == ["0.5", "0.9", "0.99"]

    def test_latest_snapshot_wins(self):
        events = [
            {"type": "counter", "name": "c", "value": 1},
            {"type": "counter", "name": "c", "value": 7},
        ]
        text = prometheus_exposition(events)
        assert "repro_c_total 7" in text
        assert "repro_c_total 1" not in text

    def test_real_run_passes_strict_checker(self, pool_trace):
        text = prometheus_exposition(pool_trace)
        families = check_exposition(text)
        assert "repro_work_items_total" in families
        assert "repro_parallel_tasks_total" in families

    def test_values_finite(self):
        h = Histogram("lat")
        h.observe(0.5)
        text = prometheus_exposition([h.to_event()])
        for line in text.splitlines():
            if not line.startswith("#"):
                value = float(line.rsplit(" ", 1)[1])
                assert math.isfinite(value)


# ----------------------------------------------------------------------
# HTML run report
# ----------------------------------------------------------------------
class TestRunReport:
    def test_report_sections(self, pool_trace):
        events = list(pool_trace) + [
            {"type": "counter", "name": "cache.artifacts.hits", "value": 3},
            {"type": "counter", "name": "cache.artifacts.misses", "value": 1},
            {"type": "counter", "name": "testzones.node1.passband",
             "value": 9},
        ]
        page = render_run_report(events, title="test run")
        assert page.startswith("<!DOCTYPE html>")
        assert "Span waterfall" in page
        assert "parallel.export" in page and "work.item" in page
        assert "Wall time by stage" in page
        assert "Cache hit rates" in page and "75.0%" in page
        assert "Parallel execution" in page
        assert "Test-zone hits" in page
        assert "<script" not in page  # self-contained, no JS

    def test_escapes_html(self):
        sink = InMemorySink()
        tel = Telemetry(sinks=[sink])
        with tel.span("<script>alert(1)</script>"):
            pass
        page = render_run_report(sink.events)
        assert "<script>alert(1)" not in page
        assert "&lt;script&gt;" in page

    def test_write_run_report(self, tmp_path, pool_trace):
        path = tmp_path / "report.html"
        write_run_report(str(path), pool_trace)
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_empty_trace_renders(self):
        page = render_run_report([])
        assert "No spans" in page

    def test_truncates_huge_traces(self):
        from repro.telemetry.report import MAX_WATERFALL_ROWS

        events = [{"type": "span", "name": f"s{i}", "id": str(i),
                   "parent": None, "start": float(i), "duration": 0.5,
                   "attrs": {}, "error": None}
                  for i in range(MAX_WATERFALL_ROWS + 50)]
        page = render_run_report(events)
        assert "50 more span rows truncated" in page


class TestCliIntegration:
    def test_profile_export_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "profile.json"
        rc = main(["profile", "LP", "ramp", "--vectors", "64",
                   "--export-trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        for e in doc["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in e
        assert "wrote Chrome trace" in capsys.readouterr().out

    def test_profile_exact_pooled_merges_worker_spans(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        trace = tmp_path / "pooled.json"
        # 1024 faults = two BATCH-sized tasks, so the pool really runs.
        rc = main(["profile", "LP", "ramp", "--vectors", "48",
                   "--exact", "1024", "--jobs", "2",
                   "--export-trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        (pool,) = [e for e in spans if e["name"] == "gates.fault_pool"]
        batches = [e for e in spans
                   if e["name"] == "gates.fault_batch"
                   and e["args"]["parent"] == pool["args"]["id"]]
        assert batches, "no fault_batch spans under the pool span"
        assert len({e["pid"] for e in spans}) >= 2, \
            "worker spans did not merge back"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_profile_exact_grades_width_matched_stimulus(self, ctx, jobs,
                                                         capsys):
        """``--exact`` grades the stimulus the cell-level session saw:
        10-bit generator words widened to LP's 12-bit input."""
        from repro.cli import main
        from repro.gates import (elaborate, enumerate_cell_faults,
                                 gate_level_missed)
        from repro.generators import match_width
        from repro.resolve import make_generator

        design = ctx.designs["LP"]
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)[:512]
        gen = make_generator("lfsr1", 10, 256)
        raw = match_width(gen.sequence(256), gen.width,
                          design.input_fmt.width)
        expect = len(gate_level_missed(nl, raw, faults))

        rc = main(["profile", "LP", "lfsr1", "--width", "10",
                   "--vectors", "256", "--exact", "512", "--jobs", jobs])
        assert rc == 0
        assert (f"exact gate-level grading: 512 faults, {expect} missed"
                in capsys.readouterr().out)

    def test_report_from_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        rc = main(["--trace-out", str(trace), "grade", "--design", "LP",
                   "--generator", "ramp", "--vectors", "64"])
        assert rc == 0
        rc = main(["report", "--trace", str(trace)])
        assert rc == 0
        out_path = tmp_path / "run.html"
        assert out_path.exists()
        page = out_path.read_text()
        assert "Span waterfall" in page
        assert "run.jsonl" in page  # title names the source trace

    def test_bench_report(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "bench.jsonl"
        report = tmp_path / "bench.html"
        rc = main(["--trace-out", str(trace), "bench", "--designs", "LP",
                   "--generators", "LFSR-1", "--vectors", "96",
                   "--jobs", "2", "--out", str(tmp_path / "bench.json")])
        assert rc == 0
        rc = main(["report", "--trace", str(trace), "--out", str(report)])
        assert rc == 0
        page = report.read_text()
        assert "Span waterfall" in page
        assert "Wall time by stage" in page
        assert "Latency histograms" in page
