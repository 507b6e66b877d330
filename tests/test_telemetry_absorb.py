"""Cross-process merge discipline of ``Telemetry.absorb``: histogram
bucket merging around empty and partial snapshots, and the monotone
local progress cursor."""

from __future__ import annotations

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Telemetry


def payload(metrics=()):
    return {"spans": [], "metrics": list(metrics), "pid": 4242}


class TestHistogramAbsorb:
    EDGES = [0.1, 1.0, 10.0]

    def _hist_event(self, values):
        child = Telemetry()
        hist = child.histogram("lat", edges=self.EDGES)
        hist.observe_many(values)
        return hist.to_event()

    def test_empty_child_histogram_is_a_noop(self):
        tel = Telemetry()
        tel.histogram("lat", edges=self.EDGES).observe(0.5)
        tel.absorb(payload(metrics=[self._hist_event([])]))
        hist = tel.metrics()["lat"]
        assert hist.count == 1
        assert hist.mean == pytest.approx(0.5)

    def test_absorb_into_empty_parent(self):
        tel = Telemetry()
        tel.absorb(payload(metrics=[self._hist_event([0.5, 5.0])]))
        hist = tel.metrics()["lat"]
        assert hist.count == 2
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(5.0)

    def test_partial_overlap_merges_bucketwise(self):
        tel = Telemetry()
        parent = tel.histogram("lat", edges=self.EDGES)
        parent.observe_many([0.05, 0.5])
        tel.absorb(payload(metrics=[self._hist_event([5.0, 50.0])]))
        hist = tel.metrics()["lat"]
        assert hist.count == 4
        assert list(hist.counts) == [1, 1, 1, 1]
        assert hist.total == pytest.approx(55.55)

    def test_mismatched_edges_dropped_not_fatal(self, caplog):
        tel = Telemetry()
        tel.histogram("lat", edges=self.EDGES).observe(0.5)
        child = Telemetry()
        alien = child.histogram("lat", edges=[7.0])
        alien.observe(1.0)
        with caplog.at_level("WARNING", logger="repro.telemetry"):
            tel.absorb(payload(metrics=[alien.to_event()]))
        # The unmergeable snapshot is dropped with a warning; the
        # parent's instrument is untouched.
        assert "unmergeable" in caplog.text
        assert tel.metrics()["lat"].count == 1

    def test_direct_merge_event_raises_on_edge_mismatch(self):
        tel = Telemetry()
        hist = tel.histogram("lat", edges=self.EDGES)
        child = Telemetry()
        alien = child.histogram("lat", edges=[7.0])
        alien.observe(1.0)
        with pytest.raises(TelemetryError, match="edges differ"):
            hist.merge_event(alien.to_event())


class TestProgressAbsorb:
    def test_local_update_is_monotone_too(self):
        tel = Telemetry()
        tel.progress("gates.grade", 10, 100)
        state = tel.progress("gates.grade", 4)
        assert state.done == 10.0
        assert state.total == 100.0
