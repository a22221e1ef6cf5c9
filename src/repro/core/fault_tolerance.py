"""Framework-level fault tolerance (Fig. 20).

The paper's three-step flow:

1. **fault localisation and classification** — identify whether the injected
   faults are link faults, core faults, or whole-die faults
   (:func:`repro.hardware.faults.classify_faults`),
2. **adaptive tensor partitioning** — re-balance computation so the slowest
   (most core-degraded) die no longer gates the step; in this analytical
   reproduction the re-balancing recovers the average (instead of the
   minimum) per-die throughput, up to a balancing efficiency,
3. **communication re-routing** — the mapping layer routes around failed links
   (BFS fallback in :func:`repro.mapping.routing.route_flow`); when the mesh
   becomes too fragmented for contiguous rings, TATP's hop factors and
   contention grow, producing the throughput cliff the paper reports near a
   35% link-fault rate.

:func:`run_fault_scenario` is the fault study's wafer path, with the same
``(scenario, plan_cache, wafer, config)`` signature as the other three: it
runs the scenario's pinned configuration on the service's healthy chip and
on a faulty chip built from the same config, and returns the faulty run's
:class:`~repro.api.result.PlanResult` with its throughput relative to the
healthy one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.api.result import PlanResult
from repro.api.scenario import Scenario, ScenarioError
from repro.costmodel.tables import PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.search_space import plan_for
from repro.workloads.models import ModelConfig

#: Fraction of the compute lost to imbalance that adaptive re-partitioning
#: recovers (1.0 would be perfect re-balancing).
REBALANCE_EFFICIENCY = 0.9


def run_fault_scenario(
    scenario: Scenario,
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
    config: Optional[SimulatorConfig],
) -> PlanResult:
    """Run the scenario's pinned configuration on a healthy and a faulty chip.

    ``wafer`` is the healthy chip of the scenario's geometry and ``config``
    its simulator knobs (``None`` for the defaults); the faulty chip is
    built from the same config with the faults the hardware spec samples at
    the solver's seed. The plan is chosen like the pinned-spec path's: with
    activation checkpointing when only that fits, unless the scenario
    disables ``allow_checkpoint_fallback``. Core faults are absorbed by
    adaptive re-partitioning (step 2); when the mesh fragments so far that
    the configuration cannot run at all, the throughput is 0 and the
    healthy run's report stands in for the faulty one.
    """
    solver = scenario.solver
    if solver.fixed_spec is None:
        raise ScenarioError(
            "fault-tolerance scenarios need solver.fixed_spec (the "
            "configuration to stress) — the fault path does not search")
    spec = solver.resolve_fixed_spec()
    if spec.total_degree > wafer.num_dies:
        raise ScenarioError(
            f"fixed_spec {spec.label()} spans {spec.total_degree} dies but "
            f"the wafer has {wafer.num_dies} dies")
    model = scenario.workload.resolve()
    plan = plan_for(plan_cache, model, spec, spec.total_degree,
                    wafer.config.die.hbm.capacity,
                    allow_checkpointing=solver.allow_checkpoint_fallback)
    fault_model = scenario.hardware.resolve_fault_model(seed=solver.seed)
    faulty_wafer = WaferScaleChip(wafer.config, fault_model=fault_model)

    healthy_report = WaferSimulator(wafer, config).simulate(
        plan, engine=solver.engine)
    try:
        report = WaferSimulator(faulty_wafer, config).simulate(
            plan, engine=solver.engine)
        throughput = report.throughput
    except (ValueError, KeyError):
        # The mesh has fragmented: some dies can no longer reach each other, so
        # the configuration cannot run at all — the throughput cliff.
        report, throughput = healthy_report, 0.0
    if fault_model.core_faults and throughput > 0:
        throughput = _rebalanced_throughput(model, faulty_wafer, report)

    relative = (throughput / healthy_report.throughput
                if healthy_report.throughput > 0 else 0.0)
    return PlanResult.from_report(
        "fault", scenario, model.name, spec,
        replace(report, throughput=throughput), report.oom, 1,
        relative_throughput=relative)


def _rebalanced_throughput(
    model: ModelConfig,
    wafer: WaferScaleChip,
    faulty_report: SimulationReport,
) -> float:
    """Step 2: adaptive tensor partitioning re-balances core-fault losses.

    Without re-balancing the step is gated by the slowest die; with it, each
    die receives work proportional to its surviving compute, so the effective
    loss approaches the *average* core-fault fraction (scaled by the
    re-balancing efficiency).
    """
    healthy_flops = wafer.config.die.peak_flops
    die_flops = [wafer.die(d).peak_flops for d in wafer.healthy_dies()]
    if not die_flops or healthy_flops <= 0:
        return faulty_report.throughput
    average_capacity = sum(die_flops) / (len(die_flops) * healthy_flops)
    slowest_capacity = min(die_flops) / healthy_flops
    if slowest_capacity <= 0:
        return faulty_report.throughput
    # The un-rebalanced run already reflects the slowest die; undo that and
    # apply the (partially) recovered average capacity instead.
    recovered_capacity = (
        slowest_capacity
        + (average_capacity - slowest_capacity) * REBALANCE_EFFICIENCY
    )
    improvement = recovered_capacity / slowest_capacity
    compute_time = faulty_report.compute_time / improvement
    other_time = faulty_report.step_time - faulty_report.compute_time
    new_step_time = compute_time + other_time
    if new_step_time <= 0:
        return faulty_report.throughput
    return model.tokens_per_batch / new_step_time
