"""Unit tests for the event engine's building blocks.

The randomized equivalence suite (``test_gates_equivalence.py``) pins
the event engine's verdicts, detection times and signatures to the
reference oracle; these tests pin the pieces it is built from —
super-gate fusion, the workspace buffer-reuse contract, the fault
forces patched inside super-gates, unexcited faults, input-ordered
missed lists, the telemetry counters and a cone sweep that reads no
clock — so a regression localizes to the broken layer instead of
surfacing as a distant verdict mismatch.
"""

import itertools
import pickle
import time

import numpy as np
import pytest

from repro.filters import lowpass_design
from repro.gates import (
    elaborate,
    enumerate_cell_faults,
    fault_parallel_reference,
    fused_program,
    gate_level_missed,
    gate_level_missed_reference,
)
from repro.gates.compiled import (
    OP_KINDS,
    ConeWorkspace,
    compiled_program,
    golden_net_waves,
)
from repro.gates.eventsim import (
    MAX_FUSE_INPUTS,
    MAX_FUSE_MEMBERS,
    fuse_program,
)
from repro.gates.fault_parallel import _grade_cone_batch, program_and_golden
from repro.gates.gatesim import pack_input_bits
from repro.telemetry import Telemetry, set_telemetry

from helpers import SMALL_COEFSETS, build_small_design, chunk_end_times


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260807)


#: LP's fusion statistics: a changed super-gate graph shows here first.
LP_FUSION = {"orig_levels": 481, "fused_levels": 466, "levels_fused": 15,
             "units": 9666, "super_gates": 2554, "gates_absorbed": 5196,
             "ops": 14862}

_FUSION_INPUTS = sorted(SMALL_COEFSETS) + ["LP"]


def _program(key):
    design = lowpass_design() if key == "LP" else build_small_design(key)
    return compiled_program(elaborate(design.graph))


class TestFusion:
    @pytest.mark.parametrize("key", _FUSION_INPUTS)
    def test_fusion_invariants(self, key):
        fused = fuse_program(_program(key))
        stats = fused.stats
        assert stats["fused_levels"] <= stats["orig_levels"]
        assert stats["levels_fused"] == (stats["orig_levels"]
                                         - stats["fused_levels"])
        assert fused.n_levels == stats["fused_levels"]
        assert fused.n_units == stats["units"]
        assert stats["units"] + stats["gates_absorbed"] == stats["ops"]
        # Fusion must actually bite on these multiplier-heavy designs.
        assert stats["super_gates"] > 0
        assert stats["levels_fused"] > 0
        if key == "LP":
            assert stats == LP_FUSION

    @pytest.mark.parametrize("key", sorted(SMALL_COEFSETS)[:2] + ["LP"])
    def test_groups_respect_budgets_and_tables(self, key):
        prog = _program(key)
        fused = fuse_program(prog)
        n_ext = fused.group_n_ext[fused.unit_group]
        assert fused.group_n_ext.max() <= MAX_FUSE_INPUTS
        assert fused.group_members.max() <= MAX_FUSE_MEMBERS
        # Units run in level order; each level holds whole groups.
        assert np.all(np.diff(fused.unit_group) >= 0)
        level = np.repeat(np.arange(fused.n_levels),
                          np.diff(fused.level_off))
        assert len(level) == fused.n_units
        assert not np.any(np.diff(level)[np.diff(fused.unit_group) == 0])
        # External slots of one unit are distinct nets, then sentinels.
        for row, k in zip(fused.ext.tolist(), n_ext.tolist()):
            assert len(set(row[:k])) == k and prog.n_nets not in row[:k]
            assert row[k:] == [prog.n_nets] * (len(row) - k)
        # Every unit output has a single driver.
        assert len(np.unique(fused.out)) == fused.n_units
        # Every original combinational gate is locatable for pin-fault
        # injection at a member of its unit, and every absorbed gate's
        # output is a fused-internal net.
        located = np.flatnonzero(fused.gate_unit >= 0)
        flops = np.count_nonzero(
            fused.group_recipe[fused.unit_group, 0, 0]
            == OP_KINDS.index("dff"))
        assert located.size + flops == fused.stats["ops"]
        members = fused.group_members[fused.unit_group]
        assert np.all(fused.gate_member[located]
                      < members[fused.gate_unit[located]])
        assert (np.count_nonzero(fused.internal_unit >= 0)
                == fused.stats["gates_absorbed"])

    def test_fused_program_memoizes_on_program(self):
        design = build_small_design("plain")
        prog = compiled_program(elaborate(design.graph))
        assert fused_program(prog) is fused_program(prog)

    def test_shipped_problem_is_arrays_only(self):
        """The program a grading pool pickles, its fused table included,
        holds only arrays, ints and the stats dict, and survives a
        pickle round trip."""
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        prog, _golden = program_and_golden(nl, np.arange(64))
        fused = vars(prog)["_fused"]
        for obj in (prog, fused):
            for name, value in vars(obj).items():
                if name == "_fused":
                    continue
                if name == "stats":
                    value = list(value.values())
                    assert all(type(v) is int for v in value), value
                    continue
                assert type(value) is int or (
                    type(value) is np.ndarray and value.dtype != object), name
        copy = pickle.loads(pickle.dumps(prog))
        assert "_fused" in vars(copy)
        for obj, back in ((prog, copy), (fused, fused_program(copy))):
            for name, value in vars(obj).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(back, name)), name


def _batch_setup(key, rng, n_vectors=160):
    design = build_small_design(key)
    nl = elaborate(design.graph)
    prog = compiled_program(nl)
    raw = rng.integers(-2048, 2048, size=n_vectors)
    waves = golden_net_waves(prog, pack_input_bits(raw,
                                                   len(nl.input_bits)))
    faults = [f.netlist_fault
              for f in enumerate_cell_faults(design.graph, nl)]
    return nl, prog, raw, waves, faults


def _ref_verdicts(nl, raw, batch):
    """Reference verdicts for arbitrarily large batches (64 per pass)."""
    parts = [fault_parallel_reference(nl, raw, batch[i:i + 64])
             for i in range(0, len(batch), 64)]
    return np.concatenate(parts) >= 0


class TestWorkspaceReuse:
    def test_shrink_then_grow_buffers(self):
        ws = ConeWorkspace()
        big = ws.get("x", 8, 4)
        big.fill(7)
        small = ws.get("x", 2, 2)
        # Shrinking re-slices the same persistent buffer ...
        assert np.shares_memory(big, small)
        assert small.shape == (2, 2)
        grown = ws.get("x", 16, 16)
        # ... while growing allocates fresh capacity of the right size.
        assert grown.shape == (16, 16)
        assert ws.get("x", 16, 16).size == 256

    def test_shared_workspace_across_batch_shapes(self, rng):
        """One workspace, batches that shrink then grow: verdicts match
        the reference — no stale rows leak between cone builds."""
        nl, prog, raw, golden, faults = _batch_setup("plain", rng)
        ws = ConeWorkspace()
        # Large batch (wide buffers), then tiny (shrunk views), then
        # large again (possibly regrown) — every verdict stays exact.
        windows = [faults[:128], faults[5:9], faults[:128],
                   faults[40:44], faults[64:192]]
        for i, batch in enumerate(windows):
            got, _stats = _grade_cone_batch(prog, golden, batch, 64, ws)
            expect = _ref_verdicts(nl, raw, batch)
            assert np.array_equal(got, expect), i

    def test_zero_coefficient_design_shares_the_same_contract(self, rng):
        """The same shrink/grow reuse holds on the small design with a
        zero coefficient."""
        nl, prog, raw, golden, faults = _batch_setup("with_zero", rng)
        ws = ConeWorkspace()
        for i, batch in enumerate([faults[:96], faults[3:7],
                                   faults[:96]]):
            got, _stats = _grade_cone_batch(prog, golden, batch, 64, ws)
            expect = _ref_verdicts(nl, raw, batch)
            assert np.array_equal(got, expect), i


class TestMemberForces:
    def test_shared_input_pins_and_internal_nets(self):
        """Forces inside a super-gate stay exact at one word and at
        several: a stuck pin on an external input that another member
        of the same super-gate also reads (the force must reach only its
        own member's read), and stuck fused-internal nets (member-output
        forces)."""
        nl, prog, raw, golden, faults = _batch_setup(
            "plain", np.random.default_rng(20261018))
        fused = fused_program(prog)
        gates = np.flatnonzero(fused.gate_unit >= 0)
        gate_at = dict(zip(zip(fused.gate_unit[gates].tolist(),
                               fused.gate_member[gates].tolist()),
                           gates.tolist()))
        shared = set()
        for g, (n_mem, recipe) in enumerate(zip(
                fused.group_members.tolist(), fused.group_recipe.tolist())):
            readers = {}
            for mi, (kind, s0, s1) in enumerate(recipe[:n_mem]):
                srcs = ((s0, s1) if OP_KINDS[kind] in ("xor", "and", "or")
                        else (s0,))
                for pin, src in enumerate(srcs):
                    if src >= 0:
                        readers.setdefault(src, []).append((mi, pin))
            units = np.flatnonzero(fused.unit_group == g).tolist()
            for pins in readers.values():
                if len({mi for mi, _pin in pins}) > 1:
                    shared.update((gate_at[u, mi], pin) for u in units
                                  for mi, pin in pins)
        pin_faults = [f for f in faults if f.lines[0] == "pins"
                      and len(f.lines[1]) == 1
                      and tuple(map(int, f.lines[1][0])) in shared]
        internal = [f for f in faults if f.lines[0] == "net"
                    and fused.internal_unit[int(f.lines[1])] >= 0]
        assert pin_faults and internal
        batch = pin_faults + internal
        first = np.concatenate([
            fault_parallel_reference(nl, raw, batch[i:i + 64])
            for i in range(0, len(batch), 64)])
        # Short chunks: a pin force leaking into another member's read
        # mostly moves a detection by a few vectors, not its verdict.
        times = chunk_end_times(first, len(raw), chunk=8)
        ws = ConeWorkspace()
        for size in (64, len(batch)):
            for i in range(0, len(batch), size):
                part = batch[i:i + size]
                got_times = np.full(len(part), -1, dtype=np.int64)
                got, _stats = _grade_cone_batch(prog, golden, part, 8, ws,
                                                first_detect=got_times)
                assert np.array_equal(got, _ref_verdicts(nl, raw, part))
                assert np.array_equal(got_times, times[i:i + size])


class TestFrontierSkip:
    def test_unexcited_faults_stay_undetected(self, rng):
        """Stuck-ats that agree with a constant stimulus never excite,
        so the cone sweep detects none of them."""
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        prog = compiled_program(nl)
        raw = np.zeros(256, dtype=np.int64)
        waves = golden_net_waves(
            prog, pack_input_bits(raw, len(nl.input_bits)))
        all_faults = [f.netlist_fault
                      for f in enumerate_cell_faults(design.graph, nl)]
        # Stuck-at-0 on nets that are constant 0 under the all-zero
        # stimulus: provably never excited.
        quiet = {n for n in range(waves.shape[0]) if not waves[n].any()}
        batch = [f for f in all_faults
                 if f.lines[0] == "net" and not f.value
                 and int(f.lines[1]) in quiet][:64]
        assert len(batch) >= 8
        got, _stats = _grade_cone_batch(prog, waves, batch, 64,
                                        ConeWorkspace())
        expect = _ref_verdicts(nl, raw, batch)
        assert np.array_equal(got, expect)
        assert not got.any()

    @pytest.mark.parametrize("key", ["plain", "leading_negative"])
    def test_batch_of_unread_nets_has_an_empty_cone(self, rng, key):
        """Stuck-ats on nets no gate reads (primary outputs, and bits a
        later shift drops) select no cone unit: the outputs are observed
        through their seed rows alone, and the rest stay missed."""
        design = build_small_design(key)
        nl = elaborate(design.graph)
        prog = compiled_program(nl)
        read = np.zeros(prog.n_nets, dtype=bool)
        read[prog.in0] = True
        read[prog.in1[prog.in1 >= 0]] = True
        unread = [f for f in enumerate_cell_faults(design.graph, nl)
                  if f.netlist_fault.lines[0] == "net"
                  and not read[int(f.netlist_fault.lines[1])]]
        nets = {int(f.netlist_fault.lines[1]) for f in unread}
        assert nets & set(prog.output_bits.tolist())
        assert nets - set(prog.output_bits.tolist())
        raw = rng.integers(-2048, 2048, size=128)
        waves = golden_net_waves(
            prog, pack_input_bits(raw, len(nl.input_bits)))
        batch = [f.netlist_fault for f in unread]
        got, _stats = _grade_cone_batch(prog, waves, batch, 64,
                                        ConeWorkspace())
        assert np.array_equal(got, _ref_verdicts(nl, raw, batch))
        assert got.any() and not got.all()
        keys = [[(f.node_id, f.bit, f.cell_fault) for f in missed]
                for missed in (gate_level_missed(nl, raw, unread),
                               gate_level_missed_reference(nl, raw,
                                                           unread))]
        assert keys[0] == keys[1]

    def test_missed_list_stays_input_ordered(self, rng):
        """The early-exit paths scatter verdicts back by index: missed
        lists preserve enumeration order, not cone-batch order."""
        design = build_small_design("single_digit")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = np.zeros(200, dtype=np.int64)  # few faults ever excite
        expect_keys = [(f.node_id, f.bit, f.cell_fault)
                       for f in gate_level_missed_reference(nl, raw,
                                                            faults)]
        missed = gate_level_missed(nl, raw, faults)
        got_keys = [(f.node_id, f.bit, f.cell_fault) for f in missed]
        assert got_keys == expect_keys
        # Input order, not schedule order: positions ascend.
        pos = {(f.node_id, f.bit, f.cell_fault): i
               for i, f in enumerate(faults)}
        idx = [pos[k] for k in got_keys]
        assert idx == sorted(idx)

    def test_telemetry_counters_surface(self, rng):
        design = build_small_design("plain")
        nl = elaborate(design.graph)
        faults = enumerate_cell_faults(design.graph, nl)
        raw = rng.integers(-2048, 2048, size=128)
        tel = Telemetry()
        previous = set_telemetry(tel)
        try:
            gate_level_missed(nl, raw, faults)
        finally:
            set_telemetry(previous)
        assert tel.counter("gates.lut_fused_levels").value > 0
        assert tel.counter("gates.frontier_nets").value > 0
        assert tel.counter("gates.fault_batches").value > 0


class TestDeterminism:
    def test_grading_reads_no_clock(self, monkeypatch):
        """Verdicts and every batch statistic are a function of the
        design, stimulus, faults and chunking alone: a frozen clock and
        a racing one grade the same batch identically."""
        nl, prog, raw, golden, faults = _batch_setup(
            "plain", np.random.default_rng(7), n_vectors=640)
        batch = faults[:256]
        runs = []
        for step in (0.0, 1.0):
            ticks = itertools.count()
            monkeypatch.setattr(
                time, "perf_counter",
                lambda step=step, ticks=ticks: step * next(ticks))
            runs.append(_grade_cone_batch(prog, golden, batch, 32,
                                          ConeWorkspace()))
        monkeypatch.undo()
        (frozen, frozen_stats), (racing, racing_stats) = runs
        assert np.array_equal(frozen, racing)
        assert frozen_stats == racing_stats
