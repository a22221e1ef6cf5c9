"""Baseline partitioning schemes (Megatron-1, Megatron-3/MeSP, FSDP).

The paper's six baselines combine three partitioning schemes with two mapping
engines. The schemes differ in which parallelism dimensions they may use:

* **Megatron-1** — hierarchical DP x TP (x PP on multi-wafer systems); TP
  replicates block-boundary activations.
* **MeSP** (Megatron-3) — DP x TP with sequence parallelism coupled to the TP
  group (``sp_within_tp``) plus optional context parallelism for long
  sequences.
* **FSDP** — fully-sharded data parallelism, optionally nested under plain DP.
* **TEMP** — the full search space including TATP (used by the framework
  itself rather than as a baseline).

Each scheme exposes the set of candidate :class:`ParallelSpec` configurations
it is allowed to pick from; the framework evaluates all of them through the
simulator and keeps the best non-OOM configuration, which is how the paper
reports each baseline "on its best-performing configuration".
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, List, Optional

from repro.parallelism.spec import ParallelSpec


class BaselineScheme(Enum):
    """Partitioning schemes used as baselines (plus TEMP itself)."""

    MEGATRON1 = "megatron1"
    MESP = "mesp"
    FSDP = "fsdp"
    TEMP = "temp"


def _divisors(value: int, cap: Optional[int] = None) -> List[int]:
    """Divisors of ``value`` up to ``cap`` (defaults to ``value``)."""
    limit = cap if cap is not None else value
    return [d for d in range(1, min(value, limit) + 1) if value % d == 0]


def candidate_specs(
    scheme: BaselineScheme,
    num_devices: int,
    max_tp: int = 32,
    max_tatp: int = 32,
    pipeline_degrees: Iterable[int] = (1,),
) -> List[ParallelSpec]:
    """Enumerate the configurations a scheme is allowed to choose from.

    Args:
        scheme: which partitioning scheme.
        num_devices: devices available to the scheme.
        max_tp: cap on the tensor-parallel degree.
        max_tatp: cap on the TATP degree explored by TEMP.
        pipeline_degrees: pipeline degrees to combine with (used for the
            multi-wafer study; single-wafer runs keep PP = 1).

    Returns:
        All valid :class:`ParallelSpec` candidates for the scheme.
    """
    if num_devices <= 0:
        raise ValueError(f"num_devices must be positive, got {num_devices}")
    specs: List[ParallelSpec] = []
    for pp in pipeline_degrees:
        if pp <= 0 or num_devices % pp:
            continue
        intra = num_devices // pp
        if scheme is BaselineScheme.MEGATRON1:
            specs.extend(_megatron1_candidates(intra, pp, max_tp))
        elif scheme is BaselineScheme.MESP:
            specs.extend(_mesp_candidates(intra, pp, max_tp))
        elif scheme is BaselineScheme.FSDP:
            specs.extend(_fsdp_candidates(intra, pp))
        elif scheme is BaselineScheme.TEMP:
            specs.extend(_temp_candidates(intra, pp, max_tp, max_tatp))
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown scheme {scheme}")
    return _deduplicate(specs)


def _megatron1_candidates(intra: int, pp: int, max_tp: int) -> List[ParallelSpec]:
    # Megatron-1 predates the distributed optimizer: its FP32 state is
    # replicated across data-parallel ranks.
    return [
        ParallelSpec(dp=intra // tp, tp=tp, pp=pp, zero1_optimizer=False)
        for tp in _divisors(intra, max_tp)
    ]


def _mesp_candidates(intra: int, pp: int, max_tp: int) -> List[ParallelSpec]:
    specs: List[ParallelSpec] = []
    for tp in _divisors(intra, max_tp):
        remaining = intra // tp
        for cp in _divisors(remaining):
            dp = remaining // cp
            specs.append(ParallelSpec(
                dp=dp, tp=tp, cp=cp, pp=pp, sp_within_tp=tp > 1))
    return specs


def _fsdp_candidates(intra: int, pp: int) -> List[ParallelSpec]:
    specs: List[ParallelSpec] = []
    for shard in _divisors(intra):
        if shard == 1 and intra > 1:
            # Pure DP without sharding is not an FSDP configuration.
            continue
        specs.append(ParallelSpec(dp=intra // shard, fsdp=shard, pp=pp))
    return specs


def _temp_candidates(
    intra: int, pp: int, max_tp: int, max_tatp: int
) -> List[ParallelSpec]:
    specs: List[ParallelSpec] = []
    for spec in ParallelSpec.enumerate(
            intra, dimensions=("dp", "tp", "sp", "tatp"),
            max_degree_per_dim=max(max_tp, max_tatp)):
        if spec.tp > max_tp or spec.tatp > max_tatp:
            continue
        specs.append(spec.with_degree("pp", pp))
    return specs


def _deduplicate(specs: List[ParallelSpec]) -> List[ParallelSpec]:
    seen = set()
    unique: List[ParallelSpec] = []
    for spec in specs:
        key = (spec.dp, spec.tp, spec.sp, spec.cp, spec.fsdp, spec.tatp,
               spec.pp, spec.sp_within_tp)
        if key not in seen:
            seen.add(key)
            unique.append(spec)
    return unique
