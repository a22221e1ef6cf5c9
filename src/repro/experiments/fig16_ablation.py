"""Fig. 16: ablation of TEMP's components.

Starting from the FSDP+SMap baseline (the only baseline that never OOMs), the
figure incrementally enables TEMP's two optimisations:

* **Base** — FSDP partitioning mapped by the naive sequential mapper,
* **Base+TATP** — the TATP-enabled configuration space, still mapped naively,
* **Base+TATP+TCME** — the full framework (TATP + traffic-conscious mapping).

The figure reports throughput normalised to the base for each model; the paper
finds ~1.21x from TATP and a further ~1.14x from TCME on average, growing with
model size.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
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


def ablation_row(params: Mapping[str, object],
                 payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 16 row's columns from a cell's plan payload."""
    return {
        "throughput": payload["throughput"],
        "spec": payload["spec"] if payload["spec"] else "-",
        "oom": payload["oom"],
    }


register(
    figure="fig16",
    paper="Fig. 16",
    title="Ablation: base FSDP -> +TATP -> +TATP+TCME",
    default_grid={"model": list(TABLE_II_MODELS),
                  "step": list(ABLATION_STEPS)},
    reduced_grid={"model": ["llama3-70b"], "step": list(ABLATION_STEPS)},
    schema=("model", "step", "throughput", "spec", "oom"),
    description="TEMP's two optimisations are enabled incrementally on top "
                "of the FSDP+SMap baseline; the figure normalises each "
                "model's throughput to the base step.",
    scenario=scenario_for_step,
    row=ablation_row,
)
