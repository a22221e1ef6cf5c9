"""Fig. 16: ablation of TEMP's components.

Starting from the FSDP+SMap baseline (the only baseline that never OOMs), the
runner incrementally enables TEMP's two optimisations:

* **Base** — FSDP partitioning mapped by the naive sequential mapper,
* **Base+TATP** — the TATP-enabled configuration space, still mapped naively,
* **Base+TATP+TCME** — the full framework (TATP + traffic-conscious mapping).

The figure reports throughput normalised to the base for each model; the paper
finds ~1.21x from TATP and a further ~1.14x from TCME on average, growing with
model size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.core.metrics import geometric_mean
from repro.costmodel.tables import PlanCache
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS

#: Ablation step labels, in order.
ABLATION_STEPS = ["base", "base+tatp", "base+tatp+tcme"]

#: Step label -> the framework's two ablation switches.
_STEP_SWITCHES = {
    "base": (False, False),
    "base+tatp": (True, False),
    "base+tatp+tcme": (True, True),
}


def scenario_for_step(model: str, step: str) -> Scenario:
    """The :class:`Scenario` of one (model, ablation step) cell.

    Each step toggles the framework's two switches; the scheme/engine
    resolution lives in :meth:`SolverSpec.for_framework`.
    """
    try:
        enable_tatp, enable_tcme = _STEP_SWITCHES[step]
    except KeyError:
        known = ", ".join(ABLATION_STEPS)
        raise ValueError(
            f"unknown ablation step {step!r}; expected one of {known}"
        ) from None
    return Scenario(
        workload=WorkloadSpec(model=model),
        solver=SolverSpec.for_framework(enable_tatp=enable_tatp,
                                        enable_tcme=enable_tcme),
    )


@dataclass
class AblationRow:
    """Throughput of one model under the three ablation steps."""

    model: str
    throughput: Dict[str, float] = field(default_factory=dict)
    specs: Dict[str, str] = field(default_factory=dict)

    def normalized(self) -> Dict[str, float]:
        """Throughput normalised to the base configuration."""
        base = self.throughput.get("base", 0.0)
        if base <= 0:
            return {step: 0.0 for step in self.throughput}
        return {step: value / base for step, value in self.throughput.items()}


@dataclass
class AblationStudy:
    """All rows of Fig. 16."""

    rows: List[AblationRow] = field(default_factory=list)

    def average_gain(self, step: str, relative_to: str) -> float:
        """Geometric-mean throughput gain of ``step`` over ``relative_to``."""
        gains: List[float] = []
        for row in self.rows:
            if row.throughput.get(relative_to, 0.0) <= 0:
                continue
            gains.append(row.throughput[step] / row.throughput[relative_to])
        return geometric_mean(gains) if gains else 0.0


def ablation_row(params: Mapping[str, object],
                 payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 16 row's columns from a cell's plan payload."""
    return {
        "throughput": payload["throughput"],
        "spec": payload["spec"] if payload["spec"] else "-",
        "oom": payload["oom"],
    }


def run_ablation(
    models: Optional[Sequence[str]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> AblationStudy:
    """Run the Fig. 16 ablation."""
    model_names = list(models) if models is not None else list(TABLE_II_MODELS)
    service = PlanService(plan_cache=plan_cache)
    study = AblationStudy()
    for name in model_names:
        row = AblationRow(model=name)
        for step in ABLATION_STEPS:
            params = {"model": name, "step": step}
            payload = service.evaluate(scenario_for_step(name, step)).to_dict()
            columns = ablation_row(params, payload)
            row.throughput[step] = columns["throughput"]
            row.specs[step] = columns["spec"]
        study.rows.append(row)
    return study


register(
    figure="fig16",
    paper="Fig. 16",
    title="Ablation: base FSDP -> +TATP -> +TATP+TCME",
    default_grid={"model": list(TABLE_II_MODELS),
                  "step": list(ABLATION_STEPS)},
    reduced_grid={"model": ["llama3-70b"], "step": list(ABLATION_STEPS)},
    schema=("model", "step", "throughput", "spec", "oom"),
    entrypoints=("run_ablation",),
    description="TEMP's two optimisations are enabled incrementally on top "
                "of the FSDP+SMap baseline; the figure normalises each "
                "model's throughput to the base step.",
    scenario=scenario_for_step,
    row=ablation_row,
)
