"""Fig. 19: multi-wafer scalability.

Larger-than-one-wafer models (GPT-3 175B on two wafers, Grok-1 341B and
Llama3 405B on four, a 504B GPT-3 variant on six) are trained with pipeline
parallelism across wafers. The baselines are forced into high pipeline
degrees (and hence large bubbles) because they lack a wafer-tailored
parallelism; TEMP's TATP keeps the pipeline degree low and wins by 1.2-1.6x.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.parallelism.baselines import BaselineScheme
from repro.runner.registry import register
from repro.workloads.models import MULTI_WAFER_MODELS

#: The (scheme, engine, label) grid of Fig. 19 (same systems as Fig. 13).
MULTI_WAFER_GRID = [
    (BaselineScheme.MEGATRON1, "smap", "Mega+SMap"),
    (BaselineScheme.MEGATRON1, "gmap", "Mega+GMap"),
    (BaselineScheme.MESP, "smap", "MeSP+SMap"),
    (BaselineScheme.MESP, "gmap", "MeSP+GMap"),
    (BaselineScheme.FSDP, "smap", "FSDP+SMap"),
    (BaselineScheme.FSDP, "gmap", "FSDP+GMap"),
    (BaselineScheme.TEMP, "tcme", "TEMP"),
]

#: System labels of the figure, baselines first, TEMP last.
SYSTEMS = [label for _, _, label in MULTI_WAFER_GRID]

#: Label -> (scheme, engine) lookup of the Fig. 19 systems.
_SYSTEM_TABLE = {label: (scheme, engine)
                 for scheme, engine, label in MULTI_WAFER_GRID}


def scenario_for_multiwafer(model: str, system: str) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 19: the
    model on the paper's wafer count for it (:data:`MULTI_WAFER_MODELS`),
    pipelined over 16 microbatches.
    """
    try:
        scheme, engine = _SYSTEM_TABLE[system]
    except KeyError:
        known = ", ".join(SYSTEMS)
        raise KeyError(
            f"unknown system {system!r}; expected one of {known}") from None
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=HardwareSpec(num_wafers=MULTI_WAFER_MODELS[model],
                              num_microbatches=16),
        solver=SolverSpec(scheme=scheme.value, engine=engine),
    )


def multiwafer_row(params: Mapping[str, object],
                   payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 19 row's columns from a cell's plan payload."""
    return {
        "num_wafers": payload["num_wafers"],
        "spec": payload["spec"] if payload["spec"] else "-",
        "pp_degree": payload["pp_degree"],
        "step_time": payload["step_time"],
        "compute_time": payload["compute_time"],
        "comm_time": payload["comm_time"],
        "bubble_time": payload["bubble_time"],
        "throughput": payload["throughput"],
        "oom": payload["oom"],
    }


register(
    figure="fig19",
    paper="Fig. 19",
    title="Multi-wafer scalability (pipeline parallelism across wafers)",
    default_grid={"model": list(MULTI_WAFER_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": ["gpt3-175b"], "system": list(SYSTEMS)},
    schema=("model", "system", "num_wafers", "spec", "pp_degree",
            "step_time", "compute_time", "comm_time", "bubble_time",
            "throughput", "oom"),
    description="Larger-than-one-wafer models are pipelined across 2-6 "
                "wafers; TEMP keeps the pipeline degree (and the bubble) "
                "low because TATP covers more parallelism inside a wafer.",
    scenario=scenario_for_multiwafer,
    row=multiwafer_row,
)
