"""Candidate-configuration enumeration and pruning.

Given a die count, the search space of hybrid configurations grows
combinatorially (this is Challenge 3 of the paper). The solver keeps it
manageable with structural pruning:

* degrees must be divisors of the die count,
* the TP degree cannot exceed the number of attention heads,
* the TATP degree is capped (the paper's sweet-spot analysis bounds useful
  degrees at around 32),
* configurations whose estimated per-die memory footprint already exceeds the
  HBM capacity by a wide margin are dropped before simulation,
* an optional cap evenly subsamples the survivors (:func:`downsample_specs`).

Every search of :class:`~repro.api.service.PlanService` (the single-wafer,
pinned-spec, multi-wafer, fault and dual-level solver paths on the wafer,
and the GPU comparator) runs each candidate's plan as :func:`plan_for`
picks it, checkpointed when only that fits, and then makes its choice with
:func:`select_fastest`, the fastest candidate that fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.costmodel.tables import PlanCache
from repro.hardware.config import WaferConfig, default_wafer_config
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import DEFAULT_MICROBATCHES, ExecutionPlan
from repro.simulation.memory import fits_in_memory, memory_pressure
from repro.workloads.models import ModelConfig

Result = TypeVar("Result")  # what a search's evaluate returns: has a step_time


@dataclass
class SearchSpace:
    """The candidate configurations the solver explores for one model.

    Attributes:
        model: the model being optimised.
        num_devices: dies available.
        scheme: which scheme's configuration space to enumerate (TEMP by
            default — the full space including TATP).
        max_tp: cap on tensor parallel degree.
        max_tatp: cap on TATP degree.
        pipeline_degrees: pipeline degrees to consider.
    """

    model: ModelConfig
    num_devices: int
    scheme: BaselineScheme = BaselineScheme.TEMP
    max_tp: int = 32
    max_tatp: int = 32
    pipeline_degrees: Sequence[int] = (1,)

    def candidates(self) -> List[ParallelSpec]:
        """Enumerate the raw candidate configurations."""
        max_tp = min(self.max_tp, self.model.num_heads)
        return candidate_specs(
            self.scheme,
            self.num_devices,
            max_tp=max_tp,
            max_tatp=self.max_tatp,
            pipeline_degrees=self.pipeline_degrees,
        )

    def pruned_candidates(
        self,
        wafer: Optional[WaferConfig] = None,
        memory_margin: float = 1.5,
        plan_cache: Optional[PlanCache] = None,
    ) -> List[ParallelSpec]:
        """Candidates surviving the memory-based pruning."""
        wafer = wafer or default_wafer_config()
        return prune_specs(
            self.candidates(), self.model, wafer, memory_margin=memory_margin,
            plan_cache=plan_cache)


def prune_specs(
    specs: Iterable[ParallelSpec],
    model: ModelConfig,
    wafer: WaferConfig,
    memory_margin: float = 1.5,
    plan_cache: Optional[PlanCache] = None,
) -> List[ParallelSpec]:
    """Drop configurations that cannot possibly fit in memory.

    Args:
        specs: candidate configurations.
        model: the model being trained.
        wafer: wafer configuration providing the per-die HBM capacity.
        memory_margin: configurations whose estimated footprint exceeds
            ``memory_margin x capacity`` are pruned outright (mildly
            over-capacity candidates are kept so the simulator can report them
            as OOM, matching how the paper presents OOM bars).
        plan_cache: shared execution-plan cache; callers that analyse the
            surviving specs again (finalist ranking, simulation) pass their
            cache here so every plan is derived exactly once. A private cache
            is used when omitted.

    Returns:
        The surviving configurations, in the original order.
    """
    if memory_margin <= 0:
        raise ValueError(f"memory_margin must be positive, got {memory_margin}")
    # Explicit None check: an empty PlanCache is falsy (it has __len__).
    if plan_cache is None:
        plan_cache = PlanCache()
    capacity = wafer.die.hbm.capacity
    survivors: List[ParallelSpec] = []
    for spec in specs:
        plan = plan_cache.analyze(model, spec)
        if plan.memory.total <= capacity * memory_margin:
            survivors.append(spec)
            continue
        # A configuration may still become feasible once activation
        # checkpointing is enabled; keep it if the checkpointed footprint is
        # within the margin.
        checkpointed = plan_cache.analyze(
            model, spec, activation_checkpointing=True)
        if checkpointed.memory.total <= capacity * memory_margin:
            survivors.append(spec)
    return survivors


def downsample_specs(specs: List[ParallelSpec], limit: int) -> List[ParallelSpec]:
    """Evenly subsample a candidate list while keeping both endpoints."""
    if limit >= len(specs):
        return specs
    if limit == 1:
        return [specs[0]]
    # Spread limit indices over [0, len-1] inclusive; the stride is >= 1
    # (limit < len), so the rounded indices are strictly increasing and the
    # last one lands exactly on len(specs) - 1.
    stride = (len(specs) - 1) / (limit - 1)
    return [specs[min(round(index * stride), len(specs) - 1)]
            for index in range(limit)]


def checkpointing_allowed(scheme: BaselineScheme) -> bool:
    """Whether a search may run ``scheme``'s candidates checkpointed.

    Full activation recomputation is part of every scheme's toolbox except
    Megatron-1's, whose replication-reliant execution the paper evaluates
    with its published (selective-recompute-only) recipe.
    """
    return scheme is not BaselineScheme.MEGATRON1


def plan_for(
    plan_cache: PlanCache,
    model: ModelConfig,
    spec: ParallelSpec,
    num_devices: int,
    capacity: float,
    allow_checkpointing: bool,
    num_microbatches: int = DEFAULT_MICROBATCHES,
) -> ExecutionPlan:
    """The plan that runs for ``spec``: checkpointed when only that fits.

    ``capacity`` is the per-device memory in bytes and
    ``num_microbatches`` the pipeline's microbatch count. Without a fit
    either way the plain plan is returned, so the caller reports it as OOM.
    """
    plan = plan_cache.analyze(model, spec, num_devices=num_devices,
                              num_microbatches=num_microbatches)
    if allow_checkpointing and not fits_in_memory(plan.memory, capacity):
        checkpointed = plan_cache.analyze(
            model, spec, num_devices=num_devices,
            activation_checkpointing=True, num_microbatches=num_microbatches)
        if fits_in_memory(checkpointed.memory, capacity):
            return checkpointed
    return plan


def select_fastest(
    candidates: Iterable[Tuple[ParallelSpec, ExecutionPlan]],
    capacity: float,
    evaluate: Callable[[ExecutionPlan], Result],
) -> Tuple[Optional[ParallelSpec], Optional[Result], bool]:
    """The fastest of ``(spec, plan)`` candidates that fits in ``capacity``.

    ``capacity`` is the per-device memory in bytes, and the plan's memory
    alone decides OOM (the simulators' own test), so ``evaluate`` (mapping
    plus simulation) runs once per candidate that fits and never on one
    that does not, unless none fits: then only the one with the least
    memory pressure is evaluated and reported as OOM. On either key a tie
    keeps the earlier candidate. Returns ``(spec, result, oom)``, or
    ``(None, None, True)`` without candidates.
    """
    best: Optional[Tuple[ParallelSpec, Result]] = None
    fallback: Optional[Tuple[float, ParallelSpec, ExecutionPlan]] = None
    for spec, plan in candidates:
        if fits_in_memory(plan.memory, capacity):
            result = evaluate(plan)
            if best is None or result.step_time < best[1].step_time:
                best = (spec, result)
            continue
        pressure = memory_pressure(plan.memory, capacity)
        if fallback is None or pressure < fallback[0]:
            fallback = (pressure, spec, plan)
    if best is not None:
        return best[0], best[1], False
    if fallback is None:
        return None, None, True
    _, spec, plan = fallback
    return spec, evaluate(plan), True
