"""Parallelism strategies: DP / TP / SP / CP / PP / FSDP and the paper's TATP.

* :mod:`repro.parallelism.spec` — :class:`ParallelSpec`, the (DP, TP, SP, CP,
  FSDP, TATP, PP) degree tuple that names a hybrid strategy, as in the
  "(1,4,1,8)" notation of Fig. 17/18.
* :mod:`repro.parallelism.comm` — communication-task abstractions (collective
  type, group, per-device volume) shared between the strategy analysis and the
  mapping engines.
* :mod:`repro.parallelism.tatp` — the tensor-stream partition paradigm (TSPP)
  and its topology-aware realisation TATP, including Algorithm 1's
  bidirectional compute-and-relay orchestration and the selective
  weight-vs-activation streaming policy.
* :mod:`repro.parallelism.strategies` — the analytical execution-plan builder:
  for a model, a spec, and a die count it derives per-die FLOPs, the
  mixed-precision memory footprint, and the communication tasks each strategy
  induces.
* :mod:`repro.parallelism.baselines` — the baseline partitioning schemes
  (Megatron-1, Megatron-3/MeSP, FSDP) used throughout the evaluation.
* :mod:`repro.parallelism.representation` — the coordinate-based unified
  parallelism representation of Fig. 10 (sub-tensor coordinates and their
  spatio-temporal mapping onto dies).
"""

from repro.parallelism.spec import ParallelSpec
from repro.parallelism.comm import CollectiveType, CommTask
from repro.parallelism.tatp import (
    StreamChoice,
    TATPSchedule,
    TransferOp,
    bidirectional_schedule,
    naive_ring_schedule,
    select_stream_tensor,
)
from repro.parallelism.strategies import ExecutionPlan, analyze_model
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.representation import (
    SubTensorCoordinate,
    UnifiedMapping,
    build_unified_mapping,
)

__all__ = [
    "ParallelSpec",
    "CollectiveType",
    "CommTask",
    "StreamChoice",
    "TATPSchedule",
    "TransferOp",
    "bidirectional_schedule",
    "naive_ring_schedule",
    "select_stream_tensor",
    "ExecutionPlan",
    "analyze_model",
    "BaselineScheme",
    "candidate_specs",
    "SubTensorCoordinate",
    "UnifiedMapping",
    "build_unified_mapping",
]
