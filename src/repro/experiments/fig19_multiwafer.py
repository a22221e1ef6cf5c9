"""Fig. 19: multi-wafer scalability.

Larger-than-one-wafer models (GPT-3 175B on two wafers, Grok-1 341B and
Llama3 405B on four, a 504B GPT-3 variant on six) are trained with pipeline
parallelism across wafers. The baselines are forced into high pipeline
degrees (and hence large bubbles) because they lack a wafer-tailored
parallelism; TEMP's TATP keeps the pipeline degree low and wins by 1.2-1.6x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.costmodel.tables import PlanCache
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


def scenario_for_multiwafer(model: str, system: str,
                            num_wafers: Optional[int] = None,
                            num_microbatches: int = 16) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 19.

    ``num_wafers`` defaults to the paper's wafer count for the model
    (:data:`MULTI_WAFER_MODELS`).
    """
    try:
        scheme, engine = _SYSTEM_TABLE[system]
    except KeyError:
        known = ", ".join(SYSTEMS)
        raise KeyError(
            f"unknown system {system!r}; expected one of {known}") from None
    if num_wafers is None:
        num_wafers = MULTI_WAFER_MODELS[model]
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=HardwareSpec(num_wafers=num_wafers,
                              num_microbatches=num_microbatches),
        solver=SolverSpec(scheme=scheme.value, engine=engine),
    )


@dataclass
class MultiWaferCell:
    """One (model, system) cell of Fig. 19."""

    model: str
    system: str
    num_wafers: int
    spec: str
    pp_degree: int
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    throughput: float
    oom: bool


@dataclass
class MultiWaferStudy:
    """All cells of Fig. 19."""

    cells: List[MultiWaferCell] = field(default_factory=list)

    def cell(self, model: str, system: str) -> MultiWaferCell:
        """Look up one cell."""
        for candidate in self.cells:
            if candidate.model == model and candidate.system == system:
                return candidate
        raise KeyError(f"no cell for model={model} system={system}")

    def systems(self) -> List[str]:
        """System labels in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.system not in ordered:
                ordered.append(cell.system)
        return ordered

    def models(self) -> List[str]:
        """Model names in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.model not in ordered:
                ordered.append(cell.model)
        return ordered

    def temp_speedup(self, model: str, system: str) -> float:
        """TEMP speedup over ``system`` for ``model``."""
        baseline = self.cell(model, system)
        temp = self.cell(model, "TEMP")
        if temp.step_time <= 0 or baseline.oom:
            return 0.0
        return baseline.step_time / temp.step_time


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


def run_multiwafer_study(
    models: Optional[Dict[str, int]] = None,
    num_microbatches: int = 16,
    plan_cache: Optional[PlanCache] = None,
) -> MultiWaferStudy:
    """Run the Fig. 19 study.

    Args:
        models: mapping of model name -> wafer count (defaults to the paper's
            four models).
        num_microbatches: pipeline microbatches per step.
        plan_cache: optional shared ``analyze_model`` memoisation.
    """
    model_map = dict(models) if models is not None else dict(MULTI_WAFER_MODELS)
    service = PlanService(plan_cache=plan_cache)
    study = MultiWaferStudy()
    for name, num_wafers in model_map.items():
        for system in SYSTEMS:
            params = {"model": name, "system": system}
            scenario = scenario_for_multiwafer(
                name, system, num_wafers=num_wafers,
                num_microbatches=num_microbatches)
            payload = service.evaluate(scenario).to_dict()
            study.cells.append(
                MultiWaferCell(**params, **multiwafer_row(params, payload)))
    return study


register(
    figure="fig19",
    paper="Fig. 19",
    title="Multi-wafer scalability (pipeline parallelism across wafers)",
    default_grid={"model": list(MULTI_WAFER_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": ["gpt3-175b"], "system": list(SYSTEMS)},
    schema=("model", "system", "num_wafers", "spec", "pp_degree",
            "step_time", "compute_time", "comm_time", "bubble_time",
            "throughput", "oom"),
    entrypoints=("run_multiwafer_study",),
    description="Larger-than-one-wafer models are pipelined across 2-6 "
                "wafers; TEMP keeps the pipeline degree (and the bubble) "
                "low because TATP covers more parallelism inside a wafer.",
    scenario=scenario_for_multiwafer,
    row=multiwafer_row,
)
