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

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.parallelism.spec import ParallelSpec
from repro.runner.registry import register

#: Link-fault rates swept in Fig. 20(b).
LINK_FAULT_RATES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8]

#: Core-fault rates swept in Fig. 20(c).
CORE_FAULT_RATES = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]

#: Default model and seed of the paper's sweep.
_DEFAULT_MODEL = "llama2-7b"
_DEFAULT_SEED = 7


def scenario_for_fault(sweep: str, rate: float,
                       model: str = _DEFAULT_MODEL,
                       seed: int = _DEFAULT_SEED) -> Scenario:
    """The :class:`Scenario` of one (sweep, fault rate) point of Fig. 20."""
    if sweep == "link":
        hardware = HardwareSpec(link_fault_rate=rate)
    elif sweep == "core":
        hardware = HardwareSpec(core_fault_rate=rate)
    else:
        raise ValueError(f"unknown fault sweep {sweep!r} (link/core)")
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=hardware,
        solver=SolverSpec(engine="tcme", seed=seed,
                          fixed_spec={"dp": 4, "tatp": 8}),
    )


@dataclass
class FaultSweepPoint:
    """Normalised throughput at one fault rate."""

    fault_rate: float
    relative_throughput: float


@dataclass
class FaultToleranceStudy:
    """Both sweeps of Fig. 20."""

    link_sweep: List[FaultSweepPoint] = field(default_factory=list)
    core_sweep: List[FaultSweepPoint] = field(default_factory=list)

    def link_cliff_rate(self, threshold: float = 0.5) -> Optional[float]:
        """First link-fault rate at which throughput drops below ``threshold``."""
        for point in self.link_sweep:
            if point.relative_throughput < threshold:
                return point.fault_rate
        return None

    def core_degradation_at(self, rate: float) -> Optional[float]:
        """Relative throughput at a given core-fault rate (None if not swept)."""
        for point in self.core_sweep:
            if abs(point.fault_rate - rate) < 1e-9:
                return point.relative_throughput
        return None


def run_fault_tolerance(
    model_name: str = _DEFAULT_MODEL,
    spec: Optional[ParallelSpec] = None,
    link_rates: Optional[Sequence[float]] = None,
    core_rates: Optional[Sequence[float]] = None,
    seed: int = _DEFAULT_SEED,
    service: Optional[PlanService] = None,
) -> FaultToleranceStudy:
    """Run both fault sweeps of Fig. 20."""
    link_rates = list(link_rates) if link_rates is not None else list(LINK_FAULT_RATES)
    core_rates = list(core_rates) if core_rates is not None else list(CORE_FAULT_RATES)
    service = service or PlanService()

    study = FaultToleranceStudy()
    for rate in link_rates:
        study.link_sweep.append(FaultSweepPoint(
            fault_rate=rate,
            relative_throughput=evaluate_fault_point(
                "link", rate, model_name=model_name, spec=spec, seed=seed,
                service=service),
        ))
    for rate in core_rates:
        study.core_sweep.append(FaultSweepPoint(
            fault_rate=rate,
            relative_throughput=evaluate_fault_point(
                "core", rate, model_name=model_name, spec=spec, seed=seed,
                service=service),
        ))
    return study


def evaluate_fault_point(
    sweep: str,
    rate: float,
    model_name: str = _DEFAULT_MODEL,
    spec: Optional[ParallelSpec] = None,
    seed: int = _DEFAULT_SEED,
    service: Optional[PlanService] = None,
) -> float:
    """Relative throughput at one fault rate of one sweep ("link"/"core")."""
    service = service or PlanService()
    scenario = scenario_for_fault(sweep, rate, model=model_name, seed=seed)
    if spec is not None:
        scenario = scenario.with_fixed_spec(spec)
    result = service.evaluate(scenario)
    if result.relative_throughput is None:
        raise ValueError(
            f"scenario {scenario.describe()} did not take the fault path")
    return result.relative_throughput


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
    entrypoints=("run_fault_tolerance",),
    description="Normalised throughput swept against the link-fault rate "
                "(cliff near 35%) and the core-fault rate (graceful "
                "degradation via adaptive re-partitioning); seeded fault "
                "sampling keeps the rows deterministic.",
    scenario=scenario_for_fault,
    row=fault_row,
)
