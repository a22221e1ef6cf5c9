"""Fig. 13: overall training-performance comparison.

Six baselines (three partitioning schemes x two mapping engines) plus TEMP are
evaluated on the Table II models. Each cell's row reports the training
latency with its computation / communication breakdown, the peak per-die
memory, and whether the configuration ran out of memory — exactly the
quantities the figure plots.

Every cell is described by a :class:`repro.api.Scenario`
(:func:`scenario_for_system`) and evaluated through
:class:`repro.api.PlanService`; Fig. 14 reads the power numbers off the same
scenarios this figure reads the latency off.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.parallelism.baselines import BaselineScheme
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS

#: The six baseline (scheme, engine) pairs of the figure, in label order.
BASELINE_GRID = [
    (BaselineScheme.MEGATRON1, "smap", "Mega+SMap"),
    (BaselineScheme.MEGATRON1, "gmap", "Mega+GMap"),
    (BaselineScheme.MESP, "smap", "MeSP+SMap"),
    (BaselineScheme.MESP, "gmap", "MeSP+GMap"),
    (BaselineScheme.FSDP, "smap", "FSDP+SMap"),
    (BaselineScheme.FSDP, "gmap", "FSDP+GMap"),
]

#: System labels of the figure, baselines first, TEMP last.
SYSTEMS = [label for _, _, label in BASELINE_GRID] + ["TEMP"]

#: Label -> (scheme, engine) lookup for the six baselines.
_SYSTEM_TABLE = {label: (scheme, engine)
                 for scheme, engine, label in BASELINE_GRID}

#: Models of the reduced grid.
FAST_MODELS = ["gpt3-6.7b", "llama3-70b"]


def scenario_for_system(model: str, system: str) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 13/14.

    ``system`` is one of :data:`SYSTEMS` ("Mega+SMap" ... "TEMP").
    """
    workload = WorkloadSpec(model=model)
    if system == "TEMP":
        return Scenario(workload=workload, solver=SolverSpec.for_framework())
    try:
        scheme, engine = _SYSTEM_TABLE[system]
    except KeyError:
        known = ", ".join(SYSTEMS)
        raise KeyError(
            f"unknown system {system!r}; expected one of {known}") from None
    return Scenario(workload=workload,
                    solver=SolverSpec(scheme=scheme.value, engine=engine))


def overall_row(params: Mapping[str, object],
                payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 13 row's columns from a cell's plan payload."""
    return {
        "spec": payload["spec"] if payload["spec"] else "-",
        "oom": payload["oom"],
        "step_time": payload["step_time"],
        "compute_time": payload["compute_time"],
        "comm_time": payload["comm_time"],
        "memory_gb": payload["memory_gb"],
        "throughput": payload["throughput"],
        "power_efficiency": payload["power_efficiency"],
    }


register(
    figure="fig13",
    paper="Fig. 13",
    title="Overall training-performance comparison (7 systems x Table II)",
    default_grid={"model": list(TABLE_II_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": list(FAST_MODELS), "system": list(SYSTEMS)},
    schema=("model", "system", "spec", "oom", "step_time", "compute_time",
            "comm_time", "memory_gb", "throughput", "power_efficiency"),
    description="Three partitioning schemes x two mapping engines plus TEMP "
                "on the Table II models: normalised training latency with "
                "its compute/communication breakdown, peak per-die memory, "
                "and OOM flags.",
    scenario=scenario_for_system,
    row=overall_row,
)
