"""Fig. 7(c): compute utilisation of physical vs logical (non-contiguous) rings.

A TATP group mapped onto a contiguous physical ring pays one-hop transfers
only; a group scattered across the wafer ("logical ring") pays multi-hop
relays that stall computation. The figure sweeps wafer sizes and shows the
utilisation gap growing past 30% for large wafers — the motivation for TATP's
topology awareness.

Each cell evaluates the same pinned TATP scenario twice: once with the TCME
engine (snake ordering, contiguous chains) and once with the adversarial
``"scattered"`` engine (:class:`repro.mapping.engines.ScatteredEngine`), and
reports the achieved compute utilisation of both.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.runner.registry import register

#: Models of the sweep.
MODELS = ["llama2-7b", "llama2-30b", "llama2-70b"]

#: TATP degree the figure fixes.
_TATP_DEGREE = 8


def scenario_for_ring(model: str, wafer: str) -> Scenario:
    """The physical-ring :class:`Scenario` of one (model, wafer size) cell.

    ``wafer`` is a "RxC" geometry label like ``"4x8"``. The logical-ring
    companion is the same scenario with the ``"scattered"`` engine.
    """
    rows, cols = (int(part) for part in wafer.split("x"))
    hardware = HardwareSpec(rows=rows, cols=cols)
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=hardware,
        solver=SolverSpec(
            engine="tcme",
            fixed_spec={"dp": hardware.num_dies // _TATP_DEGREE,
                        "tatp": _TATP_DEGREE},
            allow_checkpoint_fallback=False,
        ),
    )


@register(
    figure="fig07",
    paper="Fig. 7(c)",
    title="Compute utilisation of physical vs logical (scattered) rings",
    # The paper's 4x5 wafer is omitted: its 20 dies are not divisible by
    # the TATP degree 8 the figure fixes.
    default_grid={
        "model": list(MODELS),
        "wafer": ["4x8", "6x8", "8x10"],
    },
    reduced_grid={"model": ["llama2-7b"], "wafer": ["4x8"]},
    schema=("model", "wafer", "wafer_dies", "physical_ring_utilization",
            "logical_ring_utilization", "utilization_drop"),
    description="The same pinned TATP scenario is mapped once onto "
                "contiguous physical rings (TCME) and once with the "
                "adversarial scattered engine; the gap is the multi-hop "
                "relay penalty that motivates TATP's topology awareness.",
    scenario=scenario_for_ring,
)
def ring_utilization_cell(service, model, wafer):
    """One (model, wafer size) cell of Fig. 7(c)."""
    scenario = scenario_for_ring(model, wafer)
    scattered = replace(scenario, solver=replace(scenario.solver,
                                                 engine="scattered"))
    physical = service.evaluate(scenario).compute_utilization
    logical = service.evaluate(scattered).compute_utilization
    return [{
        "wafer_dies": scenario.hardware.num_dies,
        "physical_ring_utilization": physical,
        "logical_ring_utilization": logical,
        # Relative utilisation lost by the non-contiguous mapping.
        "utilization_drop": 1.0 - logical / physical if physical > 0 else 0.0,
    }]
