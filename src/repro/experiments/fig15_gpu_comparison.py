"""Fig. 15: wafer-scale chip vs GPU cluster.

A 32-die WSC is compared against a 4-node x 8-A100 cluster of matching
aggregate FP16 peak. The GPU cluster runs Megatron-3 (MeSP); the wafer runs
MeSP (mapped with GMap) and TEMP. The paper finds the GPU cluster slightly
ahead of the wafer when both run MeSP (hybrid parallelism doesn't fit the
mesh), while Wafer+TEMP overtakes both.

Every system is a :class:`repro.api.Scenario`: the GPU comparator sets
``HardwareSpec(platform="gpu_cluster")`` and the
:class:`~repro.api.service.PlanService` dispatches it to the cluster
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS

#: System labels of the figure.
FIG15_SYSTEMS = ["GPU+MeSP", "Wafer+MeSP", "Wafer+TEMP"]


def scenario_for_gpu_system(model: str, system: str) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 15."""
    workload = WorkloadSpec(model=model)
    if system == "GPU+MeSP":
        return Scenario(
            workload=workload,
            hardware=HardwareSpec(platform="gpu_cluster"),
            solver=SolverSpec(scheme="mesp", engine="cluster"),
        )
    if system == "Wafer+MeSP":
        return Scenario(workload=workload,
                        solver=SolverSpec(scheme="mesp", engine="gmap"))
    if system == "Wafer+TEMP":
        return Scenario(workload=workload, solver=SolverSpec.for_framework())
    known = ", ".join(FIG15_SYSTEMS)
    raise ValueError(f"unknown Fig. 15 system {system!r}; expected one of "
                     f"{known}")


@dataclass
class GPUComparisonRow:
    """Latency / throughput of one model on the three systems."""

    model: str
    gpu_mesp_time: float
    wafer_mesp_time: float
    wafer_temp_time: float
    gpu_mesp_throughput: float
    wafer_mesp_throughput: float
    wafer_temp_throughput: float

    @property
    def temp_speedup_over_gpu(self) -> float:
        """Wafer+TEMP speedup over GPU+MeSP."""
        if self.wafer_temp_time <= 0:
            return 0.0
        return self.gpu_mesp_time / self.wafer_temp_time

    @property
    def temp_speedup_over_wafer_mesp(self) -> float:
        """Wafer+TEMP speedup over Wafer+MeSP."""
        if self.wafer_temp_time <= 0:
            return 0.0
        return self.wafer_mesp_time / self.wafer_temp_time


def run_gpu_comparison(
    models: Optional[Sequence[str]] = None,
    service: Optional[PlanService] = None,
) -> List[GPUComparisonRow]:
    """Run the Fig. 15 comparison on a 32-die wafer vs a 32-GPU cluster."""
    model_names = list(models) if models is not None else list(TABLE_II_MODELS)
    service = service or PlanService()

    rows: List[GPUComparisonRow] = []
    for name in model_names:
        gpu = service.evaluate(scenario_for_gpu_system(name, "GPU+MeSP"))
        wafer_mesp = service.evaluate(
            scenario_for_gpu_system(name, "Wafer+MeSP"))
        wafer_temp = service.evaluate(
            scenario_for_gpu_system(name, "Wafer+TEMP"))
        rows.append(GPUComparisonRow(
            model=name,
            gpu_mesp_time=gpu.step_time,
            wafer_mesp_time=wafer_mesp.step_time,
            wafer_temp_time=wafer_temp.step_time,
            gpu_mesp_throughput=gpu.throughput,
            wafer_mesp_throughput=wafer_mesp.throughput,
            wafer_temp_throughput=wafer_temp.throughput,
        ))
    return rows


def gpu_comparison_row(params: Mapping[str, object],
                       payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 15 row's columns from a cell's plan payload.

    The payload carries the GPU cluster's OOM ``inf`` step time as null.
    """
    return {
        "step_time": payload["step_time"],
        "throughput": payload["throughput"],
        "oom": payload["oom"],
    }


register(
    figure="fig15",
    paper="Fig. 15",
    title="Wafer-scale chip vs GPU cluster of matching aggregate peak",
    default_grid={"model": list(TABLE_II_MODELS),
                  "system": list(FIG15_SYSTEMS)},
    reduced_grid={"model": ["gpt3-6.7b"], "system": list(FIG15_SYSTEMS)},
    schema=("model", "system", "step_time", "throughput", "oom"),
    entrypoints=("run_gpu_comparison",),
    description="A 32-die wafer against a 4-node x 8-A100 cluster: the "
                "cluster runs Megatron-3 (MeSP), the wafer runs MeSP "
                "(GMap-mapped) and TEMP.",
    scenario=scenario_for_gpu_system,
    row=gpu_comparison_row,
)
