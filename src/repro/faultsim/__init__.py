"""Fault simulation: universe assembly, fast cell-level coverage engine,
fault injection and miss classification."""

from .dictionary import (
    DesignFault,
    FaultUniverse,
    build_fault_universe,
    build_universe_from_cells,
)
from .csa import build_csa_universe, run_csa_fault_coverage
from .feasibility import (design_feasible_masks, feasible_cell_mask,
                          interval_low_bits, unread_operator_bits)
from .patterns import UNSEEN, PatternTracker, track_patterns
from .engine import CoverageResult, coverage_of_tracker, run_fault_coverage
from .classify import MissClassification, activation_counts, classify_missed_faults
from .inject import fault_effect, faulty_output, to_injected_fault
from .report import coverage_summary, missed_fault_map, testability_report

__all__ = [
    "DesignFault",
    "FaultUniverse",
    "build_fault_universe",
    "build_universe_from_cells",
    "build_csa_universe",
    "run_csa_fault_coverage",
    "design_feasible_masks",
    "feasible_cell_mask",
    "interval_low_bits",
    "unread_operator_bits",
    "PatternTracker",
    "track_patterns",
    "UNSEEN",
    "CoverageResult",
    "run_fault_coverage",
    "coverage_of_tracker",
    "MissClassification",
    "classify_missed_faults",
    "activation_counts",
    "to_injected_fault",
    "faulty_output",
    "fault_effect",
    "coverage_summary",
    "testability_report",
    "missed_fault_map",
]
