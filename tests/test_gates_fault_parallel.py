"""Fault-parallel gate simulation: agreement with the serial injector."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gates import (
    elaborate,
    enumerate_cell_faults,
    fault_parallel_reference,
    gate_level_missed,
    netlist_fault_detected,
    simulate_netlist,
)

from helpers import build_small_design


@pytest.fixture(scope="module")
def setup(rng=None):
    rng = np.random.default_rng(5)
    design = build_small_design("plain")
    nl = elaborate(design.graph)
    faults = enumerate_cell_faults(design.graph, nl)
    raw = rng.integers(-2048, 2048, size=120)
    golden = simulate_netlist(nl, raw)["output"]
    return design, nl, faults, raw, golden


class TestFaultParallel:
    def test_matches_serial_injector_everywhere(self, setup):
        """Every verdict of every batch must equal the serial result —
        the fault-parallel engine is a pure speedup."""
        design, nl, faults, raw, golden = setup
        for start in range(0, min(len(faults), 320), 64):
            batch = faults[start:start + 64]
            missed = gate_level_missed(nl, raw, batch)
            slow = [f for f in batch
                    if not netlist_fault_detected(nl, raw, f.netlist_fault,
                                                  golden=golden)]
            assert missed == slow

    def test_partial_batch(self, setup):
        design, nl, faults, raw, golden = setup
        batch = faults[:5]
        first = fault_parallel_reference(
            nl, raw, [f.netlist_fault for f in batch], golden=golden)
        assert len(first) == 5
        assert gate_level_missed(nl, raw, batch) == [
            f for f, t in zip(batch, first) if t < 0]

    def test_oversized_batch_rejected(self, setup):
        design, nl, faults, raw, golden = setup
        with pytest.raises(SimulationError):
            fault_parallel_reference(nl, raw,
                                     [faults[0].netlist_fault] * 65)

    def test_gate_level_missed_full_universe(self, setup):
        """Whole-universe exact miss list equals the serial engine's."""
        design, nl, faults, raw, golden = setup
        missed = gate_level_missed(nl, raw, faults)
        serial_missed = [
            f for f in faults
            if not netlist_fault_detected(nl, raw, f.netlist_fault,
                                          golden=golden)
        ]
        assert {f.label for f in missed} == {f.label for f in serial_missed}

    def test_progress_callback(self, setup):
        design, nl, faults, raw, golden = setup
        ticks = []
        gate_level_missed(nl, raw, faults[:130],
                          progress=lambda done, total: ticks.append((done,
                                                                     total)))
        assert ticks[-1] == (130, 130)
        assert len(ticks) == 3  # ceil(130/64)

    def test_excitation_necessity_on_sample(self, setup):
        """Gate-level detection implies cell-level excitation."""
        from repro.faultsim import build_fault_universe
        from repro.faultsim.patterns import track_patterns
        from repro.faultsim.engine import coverage_of_tracker
        design, nl, faults, raw, golden = setup
        uni = build_fault_universe(design.graph, prune_untestable=False)
        tracker = track_patterns(design.graph, uni, raw)
        cov = coverage_of_tracker(tracker)
        key = lambda f: (f.node_id, f.bit, f.cell_fault.name)
        fast_missed = {key(f) for f in cov.missed_faults()}
        gate_missed = {key(f) for f in gate_level_missed(nl, raw, faults)}
        assert fast_missed <= gate_missed
