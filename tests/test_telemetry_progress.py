"""Progress streams, progress-free payloads, histogram edge cases."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry import Telemetry
from repro.telemetry.metrics import Histogram
from repro.telemetry.progress import ProgressState, ProgressStream, progress_eta
from repro.telemetry.propagate import TraceContext, child_collector, \
    collector_payload


class TestHistogramEdges:
    def test_empty_histogram_summary_is_zero(self):
        h = Histogram("latency")
        assert h.count == 0
        assert h.percentile(0.5) == 0.0
        assert h.summary() == {"p50": 0.0, "p90": 0.0, "p99": 0.0}
        assert h.mean == 0.0

    def test_single_observation_pins_every_quantile(self):
        h = Histogram("latency", edges=(1.0, 10.0))
        h.observe(3.5)
        # One value: min == max == 3.5 clamps the bucket to a point.
        for q in (0.01, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(3.5)
        assert h.summary() == {"p50": pytest.approx(3.5),
                               "p90": pytest.approx(3.5),
                               "p99": pytest.approx(3.5)}

    def test_all_in_overflow_bucket_bounded_by_observed_range(self):
        h = Histogram("latency", edges=(0.1, 1.0))
        h.observe_many([50.0, 60.0, 70.0])
        assert h.counts[-1] == 3  # everything landed past the last edge
        for q in (0.5, 0.99):
            assert 50.0 <= h.percentile(q) <= 70.0
        assert h.percentile(1.0) == pytest.approx(70.0)

    def test_all_in_underflow_bucket(self):
        h = Histogram("latency", edges=(10.0, 100.0))
        h.observe_many([2.0, 3.0])
        assert h.counts[0] == 2
        assert 2.0 <= h.percentile(0.5) <= 3.0

    def test_quantile_domain_checked(self):
        h = Histogram("latency")
        with pytest.raises(TelemetryError):
            h.percentile(0.0)
        with pytest.raises(TelemetryError):
            h.percentile(1.5)

    def test_observe_many_empty_is_noop(self):
        h = Histogram("latency")
        h.observe_many(np.array([]))
        assert h.count == 0 and h.min == np.inf


class TestProgressStream:
    def test_done_is_monotone_per_name(self):
        stream = ProgressStream()
        stream.update("grade", 100, 1000)
        state = stream.update("grade", 40)  # stale update
        assert state.done == 100.0
        assert state.total == 1000.0
        assert stream.update("grade", 250).done == 250.0

    def test_fields_adopt_newest_values(self):
        stream = ProgressStream()
        stream.update("grade", 10, 100, coverage=0.1)
        state = stream.update("grade", 20, coverage=0.25, dropped=3)
        assert state.fields == {"coverage": 0.25, "dropped": 3}

    def test_doc_carries_fraction_rate_eta(self):
        state = ProgressState(name="grade", done=250.0, total=1000.0,
                              updated_unix=1.0, elapsed_seconds=5.0)
        doc = state.to_doc()
        assert doc["fraction"] == pytest.approx(0.25)
        assert doc["rate"] == pytest.approx(50.0)
        assert doc["eta_seconds"] == pytest.approx(15.0)

    def test_eta_undefined_without_total_or_rate(self):
        assert progress_eta(10.0, None, 5.0) is None
        assert progress_eta(0.0, 100.0, 5.0) is None
        assert progress_eta(100.0, 100.0, 5.0) == 0.0


class TestAbsorbProgress:
    def test_untraced_without_listener_is_passthrough(self):
        with child_collector(None) as handle:
            pass
        assert handle.payload is None

    def test_payload_carries_no_progress(self):
        """Streams stay in the collector that advanced them: a payload
        is spans, metrics and pid, and absorbing one leaves the
        parent's streams untouched."""
        parent = Telemetry(sinks=[])
        with parent.span("dispatch"):
            ctx = TraceContext(trace_id=parent.trace_id)
            with child_collector(ctx) as handle:
                from repro.telemetry import get_telemetry
                get_telemetry().progress("gates.grade", 700, 1000)
            parent.absorb(handle.payload)
        assert set(handle.payload) == {"spans", "metrics", "pid"}
        assert set(collector_payload(parent)) == {"spans", "metrics", "pid"}
        assert parent.progress_streams.states() == {}
