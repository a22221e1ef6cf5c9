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

from typing import Dict, Mapping

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
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
    description="A 32-die wafer against a 4-node x 8-A100 cluster: the "
                "cluster runs Megatron-3 (MeSP), the wafer runs MeSP "
                "(GMap-mapped) and TEMP.",
    scenario=scenario_for_gpu_system,
    row=gpu_comparison_row,
)
