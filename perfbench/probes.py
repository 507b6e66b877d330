"""Per-layer timing probes installed from outside the program.

A traced run wraps public functions of ``rtl``, ``faultsim``,
``analysis``, ``cache``, ``gates`` and ``cluster`` at the binding each
caller actually looks up (a module global, a package attribute read by
a call-time import, a class attribute), times every call, and restores
the originals afterwards.  Nothing under ``src/`` is edited.

Times are *exclusive*: a probe that runs inside another (a cache store
inside a universe build, a program compile inside a grade) is charged
to itself and subtracted from its caller, per thread, so the per-layer
times of one thread never double-count.  Worker threads of the service
each keep their own stack; their times add up to busy time.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Attribute every wrapper carries, so an untraced run can prove that
#: no wrapper survived a traced pass.
MARK = "__perfbench_probe__"

#: Program counters a grade call moves, read as deltas of the calling
#: context's telemetry collector around each wrapped grade.
GATE_COUNTERS = (
    "gates.faults_graded", "gates.faults_dropped", "gates.fault_batches",
    "gates.chunks_skipped", "gates.words_skipped", "gates.frontier_nets",
    "gates.lane_vectors",
)


@dataclass(frozen=True)
class Binding:
    """One place a caller looks a public function up."""

    module: str
    attr: str   # "name" or "Class.name"
    probe: str  # the layer metric family it feeds

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


# Bindings, grouped by the call path that reaches them.  A workload
# installs the groups its pass goes through.  The ``module`` is where
# the *caller* resolves the name, not where the function is defined.
DESIGNS = (
    Binding("repro.experiments.config", "ExperimentContext.designs",
            "rtl.design"),
)
CELL_LEVEL = (
    Binding("repro.experiments.config", "build_fault_universe",
            "faultsim.universe"),
    Binding("repro.filters.stats", "build_fault_universe",
            "faultsim.universe"),
    Binding("repro.faultsim.engine", "track_patterns", "faultsim.track"),
    Binding("repro.faultsim.engine", "coverage_of_tracker",
            "faultsim.classify"),
    Binding("repro.experiments.tables", "generator_spectrum",
            "analysis.compat"),
    Binding("repro.experiments.tables", "compatibility_ratio",
            "analysis.compat"),
)
CACHE = (
    Binding("repro.cache.store", "ArtifactCache.store", "cache.store"),
    Binding("repro.cache.store", "ArtifactCache.load", "cache.load"),
)
# The benchmark's shard planning and the service worker both resolve
# elaborate and enumerate_cell_faults through the package at call time
# (``from ..gates import elaborate``).
GATE_LEVEL = (
    Binding("repro.gates", "elaborate", "gates.elaborate"),
    Binding("repro.gates", "enumerate_cell_faults", "gates.enumerate"),
    Binding("repro.gates.fault_parallel", "compiled_program",
            "gates.compile"),
    Binding("repro.gates.eventsim", "fused_program", "gates.compile"),
    Binding("repro.gates.fault_parallel", "golden_net_waves",
            "gates.golden"),
)
# grade_shard calls its module-global gate_level_missed.
SHARDED_GRADE = (
    Binding("repro.cluster.shards", "gate_level_missed", "gates.grade"),
    Binding("repro.cluster.shards", "grade_shard", "cluster.grade_shard"),
    Binding("repro.cluster.shards", "merge_shard_results", "cluster.merge"),
)

#: Every binding any workload may wrap.
ALL_BINDINGS = DESIGNS + CELL_LEVEL + CACHE + GATE_LEVEL + SHARDED_GRADE


def _resolve(binding: Binding) -> Tuple[object, str]:
    """(owner object, attribute name) holding the binding."""
    owner: object = importlib.import_module(binding.module)
    parts = binding.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(owner: object, name: str):
    """The attribute as stored (a property object stays a property)."""
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


def _is_wrapped(value) -> bool:
    target = value.fget if isinstance(value, property) else value
    return bool(getattr(target, MARK, False))


def wrapped_bindings() -> List[str]:
    """Keys of every binding that currently holds a probe wrapper."""
    return [b.key for b in ALL_BINDINGS if _is_wrapped(_raw(*_resolve(b)))]


def _gate_counters() -> Dict[str, float]:
    from repro.telemetry import get_telemetry

    metrics = get_telemetry().metrics()
    return {name: float(getattr(metrics.get(name), "value", 0) or 0)
            for name in GATE_COUNTERS}


class Recorder:
    """Thread-safe accumulator behind every installed wrapper."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: probe -> exclusive seconds, summed over threads.
        self.seconds: Dict[str, float] = defaultdict(float)
        #: probe -> calls.
        self.calls: Dict[str, int] = defaultdict(int)
        #: binding key -> calls (proves each wrapper fired).
        self.fired: Dict[str, int] = defaultdict(int)
        #: thread id -> seconds spent inside outermost probes.
        self.outer: Dict[int, float] = defaultdict(float)
        #: free-form tallies: vectors tracked, faults graded, bytes, ...
        self.tally: Dict[str, float] = defaultdict(float)

    def _observe(self, probe: str, args, result) -> None:
        """Per-call tallies (called with the lock held)."""
        if probe == "faultsim.track":
            self.tally["track_vectors"] += len(args[2])
        elif probe == "gates.grade":
            self.tally["grade_faults"] += len(args[2])
        elif probe == "cache.load":
            self.tally["cache_hits" if result is not None
                       else "cache_misses"] += 1
        elif probe == "cache.store" and isinstance(result, str):
            if os.path.isfile(result):  # a raising store returns nothing
                self.tally["store_bytes"] += os.path.getsize(result)

    def call(self, binding: Binding, fn: Callable, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        counters = (_gate_counters() if binding.probe == "gates.grade"
                    else None)
        frame = [0.0]  # time spent in nested probes
        stack.append(frame)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            after = _gate_counters() if counters is not None else None
            with self._lock:
                self.seconds[binding.probe] += dt - frame[0]
                self.calls[binding.probe] += 1
                self.fired[binding.key] += 1
                if not stack:
                    self.outer[threading.get_ident()] += dt
                self._observe(binding.probe, args, result)
                if after is not None:
                    for name, value in after.items():
                        self.tally[name] += value - counters[name]


def _make_wrapper(recorder: Recorder, binding: Binding, fn: Callable):
    def wrapper(*args, **kwargs):
        return recorder.call(binding, fn, args, kwargs)

    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    setattr(wrapper, MARK, True)
    return wrapper


class Probes:
    """Install wrappers on a set of bindings; restore them on exit."""

    def __init__(self, bindings: Sequence[Binding]) -> None:
        self.bindings = list(bindings)
        self.recorder = Recorder()
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Probes":
        try:
            for b in self.bindings:
                owner, name = _resolve(b)
                original = _raw(owner, name)
                if _is_wrapped(original):
                    raise RuntimeError(f"{b.key} is already wrapped")
                if isinstance(original, property):
                    replacement: object = property(
                        _make_wrapper(self.recorder, b, original.fget))
                else:
                    replacement = _make_wrapper(self.recorder, b, original)
                setattr(owner, name, replacement)
                self._saved.append((owner, name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def unfired(self) -> List[str]:
        """Installed bindings no caller ever reached."""
        return [b.key for b in self.bindings
                if not self.recorder.fired.get(b.key)]

    def main_thread_seconds(self) -> float:
        return self.recorder.outer.get(threading.main_thread().ident, 0.0)
