"""Shared fixtures.

Reference designs and the experiment context are expensive (a few
seconds); they are session-scoped and additionally cached per process by
the library itself, so the whole suite builds each design exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentContext
from repro.filters import lowpass_design

from helpers import build_small_design

#: Modules whose tests dominate suite wall-clock (gate-level
#: equivalence sweeps, full service round-trips); CI runs them in a
#: separate ``-m slow`` lane so the unit lane stays fast.
_SLOW_MODULES = {
    "test_cluster_coordinator",
    "test_cluster_merge",
    "test_gates_equivalence",
    "test_service_e2e",
    "test_service_events",
    "test_service_fleet",
    "test_service_grading",
    "test_service_http",
}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.module.__name__ in _SLOW_MODULES:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a throwaway directory.

    Services and CLI runs under test append run records by default;
    without this every test run would pollute the developer's real
    ledger under ``~/.local/state``.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture(scope="session")
def small_design():
    return build_small_design()


@pytest.fixture(scope="session")
def lp_design():
    return lowpass_design()


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260706)
