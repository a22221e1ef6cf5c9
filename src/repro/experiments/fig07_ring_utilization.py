"""Fig. 7(c): compute utilisation of physical vs logical (non-contiguous) rings.

A TATP group mapped onto a contiguous physical ring pays one-hop transfers
only; a group scattered across the wafer ("logical ring") pays multi-hop
relays that stall computation. The figure sweeps wafer sizes and shows the
utilisation gap growing past 30% for large wafers — the motivation for TATP's
topology awareness.

The runner evaluates the same pinned TATP scenario twice: once with the TCME
engine (snake ordering, contiguous chains) and once with the adversarial
``"scattered"`` engine (:class:`repro.mapping.engines.ScatteredEngine`), and
reports the achieved compute utilisation of both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.runner.registry import register

#: (rows, cols) wafer sizes swept by the figure, smallest to largest.
WAFER_SIZES: List[Tuple[int, int]] = [(4, 5), (4, 8), (6, 8), (8, 10)]

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


@dataclass
class RingUtilizationRow:
    """Utilisation of one (model, wafer size) pair under both mappings."""

    model: str
    wafer_dies: int
    physical_ring_utilization: float
    logical_ring_utilization: float

    @property
    def utilization_drop(self) -> float:
        """Relative utilisation lost by the non-contiguous mapping."""
        if self.physical_ring_utilization <= 0:
            return 0.0
        return 1.0 - self.logical_ring_utilization / self.physical_ring_utilization


def run_ring_utilization(
    models: Optional[Sequence[str]] = None,
    wafer_sizes: Optional[Sequence[Tuple[int, int]]] = None,
    tatp_degree: int = _TATP_DEGREE,
    service: Optional[PlanService] = None,
) -> List[RingUtilizationRow]:
    """Run the Fig. 7(c) sweep."""
    model_names = list(models) if models is not None else list(MODELS)
    sizes = list(wafer_sizes) if wafer_sizes is not None else list(WAFER_SIZES)
    service = service or PlanService()
    rows: List[RingUtilizationRow] = []
    for wafer_rows, wafer_cols in sizes:
        num_dies = wafer_rows * wafer_cols
        if num_dies % tatp_degree:
            continue
        for name in model_names:
            scenario = scenario_for_ring(name, f"{wafer_rows}x{wafer_cols}")
            if tatp_degree != _TATP_DEGREE:
                scenario = replace(scenario, solver=replace(
                    scenario.solver,
                    fixed_spec={"dp": num_dies // tatp_degree,
                                "tatp": tatp_degree}))
            scattered = replace(scenario, solver=replace(
                scenario.solver, engine="scattered"))
            physical = service.evaluate(scenario)
            logical = service.evaluate(scattered)
            rows.append(RingUtilizationRow(
                model=name,
                wafer_dies=num_dies,
                physical_ring_utilization=physical.compute_utilization,
                logical_ring_utilization=logical.compute_utilization,
            ))
    return rows


@register(
    figure="fig07",
    paper="Fig. 7(c)",
    title="Compute utilisation of physical vs logical (scattered) rings",
    # (4,5) is omitted: 20 dies are not divisible by the TATP degree 8 the
    # figure fixes, so the runner would emit no rows for it.
    default_grid={
        "model": list(MODELS),
        "wafer": ["4x8", "6x8", "8x10"],
    },
    reduced_grid={"model": ["llama2-7b"], "wafer": ["4x8"]},
    schema=("model", "wafer", "wafer_dies", "physical_ring_utilization",
            "logical_ring_utilization", "utilization_drop"),
    entrypoints=("run_ring_utilization",),
    description="The same pinned TATP scenario is mapped once onto "
                "contiguous physical rings (TCME) and once with the "
                "adversarial scattered engine; the gap is the multi-hop "
                "relay penalty that motivates TATP's topology awareness.",
    scenario=scenario_for_ring,
)
def ring_utilization_cell(service, model, wafer):
    """One (model, wafer size) cell of Fig. 7(c)."""
    rows_count, cols = (int(part) for part in wafer.split("x"))
    return [{
        "wafer_dies": row.wafer_dies,
        "physical_ring_utilization": row.physical_ring_utilization,
        "logical_ring_utilization": row.logical_ring_utilization,
        "utilization_drop": row.utilization_drop,
    } for row in run_ring_utilization(models=[model],
                                      wafer_sizes=[(rows_count, cols)],
                                      service=service)]
