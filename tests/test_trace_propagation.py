"""Cross-process trace propagation: one span tree end to end.

Covers the propagation layer (TraceContext / child_collector / absorb),
its integration with ``parallel_map`` (pooled vs serial-fallback tree
shape parity), the gate-level pool, and the evaluation service's
request → job chain.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.parallel import parallel_map
from repro.telemetry import (
    InMemorySink,
    Telemetry,
    TraceContext,
    child_collector,
    collector_payload,
    get_telemetry,
    set_telemetry,
    telemetry_session,
    use_telemetry,
)


# ----------------------------------------------------------------------
# Worker functions (module-level so they pickle).
# ----------------------------------------------------------------------
def _traced_square(x):
    tel = get_telemetry()
    with tel.span("work.item", x=x):
        tel.counter("work.items").add(1)
        tel.histogram("work.value").observe(float(x))
    return x * x


def _traced_crash_in_child(x):
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return _traced_square(x)


def _tree_shape(span):
    """(name, sorted child shapes) — the pid- and timing-free shape."""
    return (span.name,
            tuple(sorted(_tree_shape(c) for c in span.children)))


class TestTraceContext:
    def test_none_when_disabled(self):
        assert not get_telemetry().enabled
        assert TraceContext.current() is None

    def test_carries_trace_and_span(self):
        with telemetry_session() as tel:
            top = TraceContext.current()
            assert top == TraceContext(trace_id=tel.trace_id, span_id=None)
            with tel.span("outer") as sp:
                ctx = TraceContext.current()
                assert ctx.trace_id == tel.trace_id
                assert ctx.span_id == sp.sid

    def test_picklable(self):
        import pickle

        ctx = TraceContext(trace_id="aa", span_id="bb")
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestChildCollector:
    def test_passthrough_when_no_context(self):
        with child_collector(None) as handle:
            assert not get_telemetry().enabled
        assert handle.payload is None

    def test_payload_joins_parent_trace(self):
        ctx = TraceContext(trace_id="feedface", span_id="root-1")
        with child_collector(ctx) as handle:
            child = get_telemetry()
            assert child.enabled and child.trace_id == "feedface"
            with child.span("child.work"):
                child.counter("c").add(2)
        payload = handle.payload
        assert payload["pid"] == os.getpid()
        (span_event,) = payload["spans"]
        assert span_event["name"] == "child.work"
        assert span_event["trace"] == "feedface"
        assert span_event["parent"] == "root-1"
        assert {"type": "counter", "name": "c", "value": 2} \
            in payload["metrics"]

    def test_use_telemetry_is_context_local(self):
        child = Telemetry()
        assert not get_telemetry().enabled
        with use_telemetry(child):
            assert get_telemetry() is child
        assert not get_telemetry().enabled


class TestAbsorb:
    def _child_payload(self, ctx):
        with child_collector(ctx) as handle:
            child = get_telemetry()
            with child.span("remote.op", k=1):
                child.counter("remote.count").add(3)
                child.histogram("remote.time").observe(0.25)
        return handle.payload

    def test_grafts_under_dispatching_span(self):
        tel = Telemetry()
        with use_telemetry(tel):
            with tel.span("dispatch") as sp:
                payload = self._child_payload(TraceContext.current())
                tel.absorb(payload)
            assert [c.name for c in sp.children] == ["remote.op"]
            assert tel.find_span(sp.children[0].sid) is sp.children[0]
        assert tel.counter("remote.count").value == 3
        assert tel.histogram("remote.time").count == 1

    def test_unknown_parent_becomes_root(self):
        tel = Telemetry()
        payload = self._child_payload(
            TraceContext(trace_id=tel.trace_id, span_id="no-such-span"))
        tel.absorb(payload)
        assert [r.name for r in tel.roots] == ["remote.op"]

    def test_absorb_none_is_noop(self):
        tel = Telemetry()
        tel.absorb(None)
        tel.absorb({})
        assert tel.roots == []

    def test_mismatched_histogram_dropped_not_fatal(self):
        tel = Telemetry()
        tel.histogram("h", edges=[1.0, 2.0]).observe(1.5)
        bad = Telemetry()
        with use_telemetry(bad):
            bad.histogram("h", edges=[5.0]).observe(1.0)
        tel.absorb(collector_payload(bad))
        assert tel.histogram("h").count == 1  # child snapshot dropped

    def test_collector_payload_walks_finished_spans(self):
        tel = Telemetry()
        with use_telemetry(tel):
            with tel.span("a"):
                with tel.span("b"):
                    pass
        payload = collector_payload(tel)
        assert sorted(e["name"] for e in payload["spans"]) == ["a", "b"]


class TestParallelMapPropagation:
    def test_pooled_spans_merge_under_dispatch(self):
        with telemetry_session() as tel:
            out = parallel_map(_traced_square, list(range(8)), jobs=2,
                               chunk_size=2, label="parallel.traced")
            assert out == [x * x for x in range(8)]
            (root,) = tel.roots
            assert root.name == "parallel.traced"
            items = [c for c in root.children if c.name == "work.item"]
            assert len(items) == 8
            assert {c.attrs["x"] for c in items} == set(range(8))
            # Worker spans carry worker pids and the parent's trace id.
            assert all(c.trace_id == tel.trace_id for c in items)
            assert any(c.pid != os.getpid() for c in items)
            # Metric deltas merged too.
            assert tel.counter("work.items").value == 8
            assert tel.histogram("work.value").count == 8

    def test_fallback_tree_shape_matches_pooled(self):
        items = list(range(6))
        with telemetry_session() as pooled_tel:
            pooled = parallel_map(_traced_square, items, jobs=2,
                                  chunk_size=2, label="parallel.shape")
        with telemetry_session() as fallback_tel:
            degraded = parallel_map(_traced_crash_in_child, items, jobs=2,
                                    chunk_size=2, label="parallel.shape")
        assert pooled == degraded == [x * x for x in items]
        (pooled_root,) = pooled_tel.roots
        (fallback_root,) = fallback_tel.roots
        assert _tree_shape(pooled_root) == _tree_shape(fallback_root)
        # The pooled tree crossed processes; the fallback one did not.
        assert {c.pid for c in fallback_root.children} == {os.getpid()}
        assert fallback_tel.counter("parallel.fallbacks").value == 1

    def test_serial_jobs1_shape_matches_pooled(self):
        items = list(range(4))
        with telemetry_session() as serial_tel:
            parallel_map(_traced_square, items, jobs=1,
                         label="parallel.shape")
        with telemetry_session() as pooled_tel:
            parallel_map(_traced_square, items, jobs=2, chunk_size=2,
                         label="parallel.shape")
        assert _tree_shape(serial_tel.roots[0]) == \
            _tree_shape(pooled_tel.roots[0])

    def test_disabled_telemetry_ships_no_payloads(self):
        assert not get_telemetry().enabled
        assert parallel_map(_traced_square, [1, 2, 3], jobs=2) == [1, 4, 9]


class TestGateworkPropagation:
    def test_worker_fault_batches_under_pool_span(self, small_design):
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.parallel import gate_level_missed_parallel

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(48)
        with telemetry_session() as tel:
            gate_level_missed_parallel(nl, raw, faults, jobs=2)
            (root,) = tel.roots
            assert root.name == "gates.fault_parallel_pool"
            (pool,) = [c for c in root.children
                       if c.name == "gates.fault_pool"]
            batches = [s for s in pool.children
                       if s.name == "gates.fault_batch"]
            assert batches, "worker batch spans did not merge back"
            assert tel.counter("gates.faults_graded").value == len(faults)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_only_the_dispatcher_publishes_grade_progress(self,
                                                          small_design,
                                                          jobs):
        """Slices graded by workers (or the serial fallback) publish no
        ``gates.grade`` stream of their own: a merged slice stream would
        report the slice size as the run's total."""
        from repro.gates.faults import enumerate_cell_faults
        from repro.gates.netlist import elaborate
        from repro.generators import Type1Lfsr
        from repro.parallel import gate_level_missed_parallel

        nl = elaborate(small_design.graph)
        faults = enumerate_cell_faults(small_design.graph, nl)
        assert len(faults) > 512  # more than one slice
        raw = Type1Lfsr(small_design.input_fmt.width).sequence(48)
        totals = []
        with telemetry_session() as tel:
            tel.on_progress(lambda state: totals.append(state.total)
                            if state.name == "gates.grade" else None)
            gate_level_missed_parallel(nl, raw, faults, jobs=jobs)
        assert totals and set(totals) == {float(len(faults))}


class TestServicePropagation:
    def test_request_to_job_tree(self, ctx):
        from repro.service import ServiceConfig, ServiceThread

        tel = Telemetry(sinks=[InMemorySink()])
        config = ServiceConfig(port=0, no_cache=True, workers=1)
        with ServiceThread(config, context=ctx, telemetry=tel) as svc:
            client = svc.client("trace-test")
            client.wait_ready(60)
            result = client.run("spectrum", {"generator": "ramp",
                                             "width": 8, "points": 2})
            assert result["width"] == 8
        submit_requests = [
            r for r in tel.roots
            if r.name == "service.request" and r.attrs.get("route") ==
            "/v1/jobs" and r.attrs.get("method") == "POST"]
        assert submit_requests, [r.name for r in tel.roots]
        jobs = [c for r in submit_requests for c in r.children
                if c.name == "service.job"]
        assert jobs, "job span did not merge under its request span"
        assert jobs[0].trace_id == tel.trace_id

    def test_job_to_dict_carries_trace_id(self):
        from repro.service.jobs import JobStore

        store = JobStore()
        job = store.create("spectrum", {"width": 8})
        assert "trace_id" not in job.to_dict()  # telemetry off at submit
        job.trace = TraceContext(trace_id="cafe", span_id="s-1")
        assert job.to_dict()["trace_id"] == "cafe"


class TestWorkerInheritanceHygiene:
    def test_forked_workers_do_not_write_parent_sinks(self, tmp_path):
        """Workers must not inherit the parent's JSONL sink handle."""
        import json

        from repro.telemetry import JsonlSink

        path = tmp_path / "trace.jsonl"
        tel = Telemetry(sinks=[JsonlSink(str(path))])
        previous = set_telemetry(tel)
        try:
            parallel_map(_traced_square, list(range(6)), jobs=2,
                         chunk_size=2, label="parallel.hygiene")
        finally:
            set_telemetry(previous)
            tel.flush()
            tel.close()
        events = [json.loads(line) for line in
                  path.read_text().splitlines() if line]
        # Every event arrived exactly once, through the parent collector.
        names = [e["name"] for e in events if e["type"] == "span"]
        assert names.count("work.item") == 6
        assert names.count("parallel.hygiene") == 1
