"""Fig. 20: fault tolerance.

Throughput is swept against (b) the link-fault rate and (c) the core-fault
rate. The paper finds a throughput cliff once roughly 35% of the links have
failed (the mesh loses the contiguous paths TATP and the collectives rely on),
but only graceful degradation under core faults because the framework
re-balances tensor partitions to the surviving compute.

Each sweep point is a :class:`repro.api.Scenario` whose hardware spec sets
the fault rate and whose solver spec pins the stressed configuration
(``dp=4, tatp=8``) and the sampling seed; the
:class:`~repro.api.service.PlanService` dispatches it to the fault path.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.runner.registry import register

#: Link-fault rates swept in Fig. 20(b).
LINK_FAULT_RATES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8]

#: Core-fault rates swept in Fig. 20(c).
CORE_FAULT_RATES = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]


def scenario_for_fault(sweep: str, rate: float) -> Scenario:
    """The :class:`Scenario` of one (sweep, fault rate) point of Fig. 20:
    llama2-7b at the stressed ``dp=4, tatp=8``, faults sampled with seed 7.
    """
    if sweep == "link":
        hardware = HardwareSpec(link_fault_rate=rate)
    elif sweep == "core":
        hardware = HardwareSpec(core_fault_rate=rate)
    else:
        raise ValueError(f"unknown fault sweep {sweep!r} (link/core)")
    return Scenario(
        workload=WorkloadSpec(model="llama2-7b"),
        hardware=hardware,
        solver=SolverSpec(engine="tcme", seed=7,
                          fixed_spec={"dp": 4, "tatp": 8}),
    )


def fault_row(params: Mapping[str, object],
              payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 20 row's columns from a cell's plan payload."""
    return {"relative_throughput": payload["relative_throughput"]}


register(
    figure="fig20",
    paper="Fig. 20",
    title="Fault tolerance: throughput under link and core faults",
    default_grid=(
        [{"sweep": "link", "rate": rate} for rate in LINK_FAULT_RATES]
        + [{"sweep": "core", "rate": rate} for rate in CORE_FAULT_RATES]),
    reduced_grid=(
        [{"sweep": "link", "rate": rate} for rate in (0.0, 0.2, 0.5)]
        + [{"sweep": "core", "rate": rate} for rate in (0.0, 0.25)]),
    schema=("sweep", "rate", "relative_throughput"),
    description="Normalised throughput swept against the link-fault rate "
                "(cliff near 35%) and the core-fault rate (graceful "
                "degradation via adaptive re-partitioning); seeded fault "
                "sampling keeps the rows deterministic.",
    scenario=scenario_for_fault,
    row=fault_row,
)
