"""Candidate-configuration enumeration and pruning.

Given a die count, the search space of hybrid configurations grows
combinatorially (this is Challenge 3 of the paper). The solver keeps it
manageable with structural pruning:

* degrees must be divisors of the die count,
* the TP degree cannot exceed the number of attention heads,
* the TATP degree is capped (the paper's sweet-spot analysis bounds useful
  degrees at around 32),
* configurations whose estimated per-die memory footprint already exceeds the
  HBM capacity by a wide margin are dropped before simulation.
Every search then keeps the fastest survivor that fits
(:func:`select_fastest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.costmodel.tables import PlanCache
from repro.hardware.config import (
    ComputeDieConfig,
    WaferConfig,
    default_wafer_config,
)
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
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


def select_fastest(
    candidates: Iterable[Tuple[ParallelSpec, ExecutionPlan]],
    die: ComputeDieConfig,
    evaluate: Callable[[ExecutionPlan], Result],
) -> Tuple[Optional[ParallelSpec], Optional[Result], bool]:
    """The fastest of ``(spec, plan)`` candidates that fits in ``die``'s HBM.

    The plan's memory alone decides OOM (the simulator's own test), so
    ``evaluate`` (mapping plus simulation) runs once per candidate that fits
    and never on one that does not, unless none fits: then only the one with
    the least memory pressure is evaluated and reported as OOM. On either
    key a tie keeps the earlier candidate. Returns ``(spec, result, oom)``,
    or ``(None, None, True)`` without candidates.
    """
    best: Optional[Tuple[ParallelSpec, Result]] = None
    fallback: Optional[Tuple[float, ParallelSpec, ExecutionPlan]] = None
    for spec, plan in candidates:
        if fits_in_memory(plan.memory, die):
            result = evaluate(plan)
            if best is None or result.step_time < best[1].step_time:
                best = (spec, result)
            continue
        pressure = memory_pressure(plan.memory, die)
        if fallback is None or pressure < fallback[0]:
            fallback = (pressure, spec, plan)
    if best is not None:
        return best[0], best[1], False
    if fallback is None:
        return None, None, True
    _, spec, plan = fallback
    return spec, evaluate(plan), True
