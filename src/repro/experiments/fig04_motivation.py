"""Fig. 4: motivation — the cost of stationary tensor partitioning.

Two measurements drive the paper's motivation:

* **Fig. 4(b)** — under Megatron-style execution, collective communication
  accounts for a large share (~35-45%) of training time while D2D bandwidth
  utilisation stays low,
* **Fig. 4(c)** — tensor replication inflates memory well beyond the ideal
  (fully sharded) footprint, pushing large models past the per-die HBM
  capacity.

Both halves are described by :class:`repro.api.Scenario` objects: the
breakdown is a MeSP+SMap search scenario, the memory study pins the
Megatron (TP=8, DP=wafer/8) and ideal (full-wafer TATP) configurations as
fixed specs (checkpoint fallback disabled so the replicated footprint — and
its OOM — is reported as-is).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.runner.registry import register
from repro.workloads.models import get_model


#: Models of the Fig. 4(b) time-breakdown study.
BREAKDOWN_MODELS = [
    "gpt3-6.7b", "gpt3-76b", "gpt3-175b",
    "deepseek-7b", "deepseek-67b", "deepseek-v2-236b",
]

#: Models of the Fig. 4(c) memory study.
MEMORY_MODELS = ["deepseek-7b", "llama2-70b", "bloom-176b"]

#: Tensor-parallel degree of the Fig. 4(c) Megatron recipe.
_MEMORY_TP = 8


def scenario_for_part(part: str, model: str) -> Scenario:
    """The :class:`Scenario` of one (sub-study, model) cell of Fig. 4.

    The memory part's scenario is the Megatron configuration; the ideal
    (fully sharded) companion is derived from it with
    :func:`ideal_memory_scenario`.
    """
    workload = WorkloadSpec(model=model)
    if part == "breakdown":
        return Scenario(workload=workload,
                        solver=SolverSpec(scheme="mesp", engine="smap"))
    if part == "memory":
        hardware = HardwareSpec()
        model_config = get_model(model)
        tp = min(_MEMORY_TP, model_config.num_heads, hardware.num_dies)
        return Scenario(
            workload=workload,
            hardware=hardware,
            solver=SolverSpec(
                scheme="megatron1", engine="smap",
                fixed_spec={"dp": hardware.num_dies // tp, "tp": tp,
                            "zero1_optimizer": False},
                allow_checkpoint_fallback=False,
            ),
        )
    raise ValueError(f"unknown Fig. 4 part {part!r}")


def ideal_memory_scenario(memory_scenario: Scenario) -> Scenario:
    """The zero-redundancy companion of a Fig. 4(c) memory scenario.

    The "Ideal" bar of the figure is the zero-redundancy footprint: every
    tensor sharded across all dies under the same micro-batched training
    recipe, which is exactly what a full-wafer TATP partitioning yields.
    """
    return replace(
        memory_scenario,
        solver=replace(memory_scenario.solver, scheme="temp",
                       fixed_spec={"tatp": memory_scenario.hardware.num_dies}),
    )


@dataclass
class BreakdownRow:
    """Fig. 4(b): time breakdown and bandwidth utilisation of one model."""

    model: str
    collective_fraction: float
    other_fraction: float
    bandwidth_utilization: float
    spec: str


@dataclass
class MemoryRow:
    """Fig. 4(c): Megatron vs ideal per-die memory of one model."""

    model: str
    megatron_gb: float
    ideal_gb: float
    capacity_gb: float
    megatron_oom: bool

    @property
    def overhead(self) -> float:
        """Megatron memory relative to the ideal footprint."""
        if self.ideal_gb <= 0:
            return 0.0
        return self.megatron_gb / self.ideal_gb


@dataclass
class MotivationResults:
    """Both halves of Fig. 4."""

    breakdown: List[BreakdownRow] = field(default_factory=list)
    memory: List[MemoryRow] = field(default_factory=list)


def run_breakdown(
    models: Optional[Sequence[str]] = None,
    service: Optional[PlanService] = None,
) -> List[BreakdownRow]:
    """Fig. 4(b): Megatron-style training-time breakdown per model."""
    model_names = list(models) if models is not None else list(BREAKDOWN_MODELS)
    service = service or PlanService()
    rows: List[BreakdownRow] = []
    for name in model_names:
        result = service.evaluate(scenario_for_part("breakdown", name))
        if result.step_time <= 0 or result.spec is None:
            continue
        collective = result.comm_time / result.step_time
        rows.append(BreakdownRow(
            model=name,
            collective_fraction=collective,
            other_fraction=1.0 - collective,
            bandwidth_utilization=result.bandwidth_utilization,
            spec=result.spec,
        ))
    return rows


def run_memory_comparison(
    models: Optional[Sequence[str]] = None,
    service: Optional[PlanService] = None,
) -> List[MemoryRow]:
    """Fig. 4(c): Megatron (TP=8, DP=wafer/8) vs ideal fully-sharded memory."""
    model_names = list(models) if models is not None else list(MEMORY_MODELS)
    service = service or PlanService()
    rows: List[MemoryRow] = []
    for name in model_names:
        scenario = scenario_for_part("memory", name)
        capacity_gb = (scenario.hardware.resolve_config().die.hbm.capacity
                       / (1024 ** 3))
        megatron = service.evaluate(scenario)
        ideal = service.evaluate(ideal_memory_scenario(scenario))
        rows.append(MemoryRow(
            model=name,
            megatron_gb=megatron.memory_gb,
            ideal_gb=ideal.memory_gb,
            capacity_gb=capacity_gb,
            megatron_oom=megatron.memory_gb > capacity_gb,
        ))
    return rows


def run_motivation(
    breakdown_models: Optional[Sequence[str]] = None,
    memory_models: Optional[Sequence[str]] = None,
    service: Optional[PlanService] = None,
) -> MotivationResults:
    """Run both halves of Fig. 4."""
    service = service or PlanService()
    return MotivationResults(
        breakdown=run_breakdown(breakdown_models, service=service),
        memory=run_memory_comparison(memory_models, service=service),
    )


@register(
    figure="fig04",
    paper="Fig. 4(b)/(c)",
    title="Motivation: the cost of stationary tensor partitioning",
    default_grid=(
        [{"part": "breakdown", "model": name} for name in BREAKDOWN_MODELS]
        + [{"part": "memory", "model": name} for name in MEMORY_MODELS]),
    reduced_grid=[
        {"part": "breakdown", "model": "gpt3-6.7b"},
        {"part": "memory", "model": "llama2-70b"},
    ],
    schema=("part", "model", "collective_fraction", "other_fraction",
            "bandwidth_utilization", "spec", "megatron_gb", "ideal_gb",
            "capacity_gb", "oom"),
    entrypoints=("run_motivation", "run_breakdown", "run_memory_comparison"),
    description="Fig. 4(b) measures the collective-communication share and "
                "D2D bandwidth utilisation of Megatron-style execution; "
                "Fig. 4(c) compares Megatron's replicated memory footprint "
                "against the ideal fully-sharded one. Columns of the other "
                "sub-study are null in each row.",
    scenario=scenario_for_part,
)
def motivation_cell(service, part, model):
    """One (sub-study, model) cell of Fig. 4."""
    if part == "breakdown":
        return [{
            "collective_fraction": row.collective_fraction,
            "other_fraction": row.other_fraction,
            "bandwidth_utilization": row.bandwidth_utilization,
            "spec": row.spec,
            "megatron_gb": None,
            "ideal_gb": None,
            "capacity_gb": None,
            "oom": False,
        } for row in run_breakdown(models=[model], service=service)]
    if part == "memory":
        return [{
            "collective_fraction": None,
            "other_fraction": None,
            "bandwidth_utilization": None,
            "spec": None,
            "megatron_gb": row.megatron_gb,
            "ideal_gb": row.ideal_gb,
            "capacity_gb": row.capacity_gb,
            "oom": row.megatron_oom,
        } for row in run_memory_comparison(models=[model],
                                           service=service)]
    raise ValueError(f"unknown Fig. 4 part {part!r}")
