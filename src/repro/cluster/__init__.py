"""Distributed sharded fault grading over the HTTP service protocol.

The cone schedule (:func:`repro.gates.faults.schedule_fault_batches`)
makes gate-level grading embarrassingly divisible: verdicts and
detection times depend only on each fault's own waveform against the
shared stimulus, never on batch composition, so any partition of the
universe grades to bit-identical results.  This package exploits that:

* :mod:`~repro.cluster.shards` — plan cone-aligned shards, run one
  shard's grading (the worker side of the ``grade-shard`` job kind) and
  merge per-shard results back into single-node-identical verdicts,
  coverage checkpoints and MISR signatures;
* :mod:`~repro.cluster.signature` — the GF(2)-linear MISR algebra that
  lets each worker compact its shard into one signature *partial* which
  XOR-merge to exactly the signature a single MISR clocking the full
  canonical response stream would produce;
* :mod:`~repro.cluster.coordinator` — dispatches shards to a fleet of
  ``repro serve`` workers, retries failures with capped backoff (the
  one way a shard is recovered, so each is delivered once) and grafts
  worker trace payloads into one span tree.
"""

from .coordinator import ClusterCoordinator, ClusterReport, run_cluster_sweep
from .shards import (
    MergedGrade,
    Shard,
    coverage_checkpoints,
    grade_shard,
    merge_shard_results,
    plan_shards,
    single_node_grade,
)
from .signature import combine_partials, shard_signature_partial

__all__ = [
    "ClusterCoordinator",
    "ClusterReport",
    "combine_partials",
    "coverage_checkpoints",
    "grade_shard",
    "merge_shard_results",
    "MergedGrade",
    "plan_shards",
    "run_cluster_sweep",
    "Shard",
    "shard_signature_partial",
    "single_node_grade",
]
