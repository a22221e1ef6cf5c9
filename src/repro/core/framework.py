"""The single-wafer search and the pinned-spec simulation.

:func:`run_baseline_scenario` and :func:`simulate_fixed_spec` are two of the
four wafer paths :meth:`repro.api.PlanService.evaluate` picks from; like the
multi-wafer and fault paths they take ``(scenario, plan_cache, wafer,
config)`` and return the scenario's
:class:`~repro.api.result.PlanResult`, built with
:meth:`~repro.api.result.PlanResult.from_report`.
:func:`run_baseline_scenario` enumerates the scheme's candidate
configurations, maps and simulates those that fit in memory with the
requested engine, and keeps the fastest (reporting the OOM if none fits).
:func:`simulate_fixed_spec` is the no-search variant for scenarios that pin
one :class:`ParallelSpec`. Both choose each candidate's plan with
:func:`~repro.solver.search_space.plan_for` and the result with
:func:`~repro.solver.search_space.select_fastest`, like every other search.
The TEMP framework itself is the ``temp`` scheme with the TCME engine
(:meth:`~repro.api.scenario.SolverSpec.for_framework`, which also expresses
the +TATP/+TCME ablation switches).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.api.result import PlanResult
from repro.api.scenario import Scenario, ScenarioError
from repro.costmodel.tables import PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import WaferSimulator
from repro.solver.search_space import (
    checkpointing_allowed,
    downsample_specs,
    plan_for,
    prune_specs,
    select_fastest,
)
from repro.workloads.models import ModelConfig


def scheme_max_tp(scheme: BaselineScheme, model: ModelConfig) -> int:
    """The tensor-parallel cap a scheme's recipe allows on ``model``.

    Megatron recipes keep the tensor-parallel degree within one
    high-bandwidth group of 8; TEMP's own space may push TP (and TATP)
    further.
    """
    if scheme in (BaselineScheme.MEGATRON1, BaselineScheme.MESP):
        return min(8, model.num_heads)
    return min(32, model.num_heads)


def run_baseline_scenario(
    scenario: "Scenario",
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
    config: Optional[SimulatorConfig],
) -> PlanResult:
    """Run the single-wafer baseline search described by ``scenario``.

    Every candidate configuration of the scheme is analysed; the fastest
    configuration that fits in memory wins, and only configurations that fit
    are mapped and simulated. When no configuration fits, the result is
    flagged OOM and carries the report of the least-over-capacity one, the
    only one simulated (this is how the OOM bars of Fig. 13 are produced).

    ``wafer`` is a healthy chip of the scenario's geometry and ``config`` its
    simulator knobs (``None`` for the defaults). ``plan_cache`` memoises
    ``analyze_model``; a caller evaluating many scenarios shares one, and
    results are identical with a private or a shared cache.
    """
    solver = scenario.solver
    scheme = solver.resolved_scheme()
    model = scenario.workload.resolve()
    num_devices = wafer.num_dies
    capacity = wafer.config.die.hbm.capacity
    # Pruning and the selection below analyse the same specs; the plan
    # cache derives each execution plan exactly once.
    with span("evaluate.candidates", scheme=scheme.value):
        all_specs = candidate_specs(
            scheme, num_devices,
            max_tp=scheme_max_tp(scheme, model),
            max_tatp=solver.max_tatp,
            pipeline_degrees=solver.pipeline_degrees,
        )
        specs = prune_specs(all_specs, model, wafer.config, memory_margin=2.0,
                            plan_cache=plan_cache)
        if not specs and all_specs:
            # Every configuration is hopelessly over capacity (e.g. Megatron-1
            # on a 175B model); keep the least-infeasible one so the OOM bar
            # can still be reported.
            specs = [min(
                all_specs,
                key=lambda s: plan_cache.analyze(
                    model, s, num_devices=num_devices).memory.total)]
        if solver.max_candidates is not None:
            specs = downsample_specs(specs, solver.max_candidates)

    allow_checkpointing = checkpointing_allowed(scheme)
    simulator = WaferSimulator(wafer, config)
    with span("evaluate.simulate", candidates=len(specs)):
        best_spec, report, oom = select_fastest(
            ((spec, plan_for(plan_cache, model, spec, num_devices, capacity,
                             allow_checkpointing))
             for spec in specs),
            capacity,
            partial(simulator.simulate, engine=solver.engine))
    return PlanResult.from_report("single_wafer", scenario, model.name,
                                  best_spec, report, oom, len(specs))


def simulate_fixed_spec(
    scenario: "Scenario",
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
    config: Optional[SimulatorConfig],
) -> PlanResult:
    """Evaluate the one pinned configuration of a fixed-spec scenario.

    No search happens: the solver spec's ``fixed_spec`` is analysed and
    simulated as-is, with activation checkpointing when only that makes it
    fit (unless the scenario disables ``allow_checkpoint_fallback``).
    """
    solver = scenario.solver
    spec = solver.resolve_fixed_spec()
    if spec.total_degree != wafer.num_dies:
        raise ScenarioError(
            f"fixed_spec {spec.label()} spans {spec.total_degree} dies; a "
            f"pinned spec must span all {wafer.num_dies} dies of the wafer")
    model = scenario.workload.resolve()
    capacity = wafer.config.die.hbm.capacity
    simulator = WaferSimulator(wafer, config)
    with span("evaluate.simulate", spec=spec.label()):
        plan = plan_for(plan_cache, model, spec, wafer.num_dies, capacity,
                        allow_checkpointing=solver.allow_checkpoint_fallback)
        _, report, oom = select_fastest(
            [(spec, plan)], capacity,
            partial(simulator.simulate, engine=solver.engine))
    return PlanResult.from_report("fixed_spec", scenario, model.name, spec,
                                  report, oom, 1)
