"""Multi-wafer evaluation (Fig. 19).

Models too large for a single wafer are split across several wafers with
pipeline parallelism; intra-wafer execution uses whichever scheme is being
evaluated. The step time of a pipelined run is

    ``stage_time * (num_microbatches + pp - 1) / num_microbatches``

plus the inter-stage activation transfers, where ``stage_time`` is the
single-wafer (or sub-wafer) simulation of one pipeline stage's share of the
layers. TEMP's advantage on multi-wafer systems comes from needing a *lower*
pipeline degree (TATP covers more parallelism inside a wafer), which shrinks
the bubble term. :func:`run_multiwafer_scenario` keeps the fastest pipelined
configuration with :func:`~repro.solver.search_space.select_fastest`, the
selection routine of every search. A pipelined configuration's report is
its stage simulation with the step time, the throughput and
:attr:`~repro.simulation.simulator.SimulationReport.cross_wafer_time`
replaced, and the path builds its :class:`~repro.api.result.PlanResult`
from it with :meth:`~repro.api.result.PlanResult.from_report`, like the
other wafer paths.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro.api.result import PlanResult
from repro.costmodel.tables import PlanCache
from repro.hardware.multiwafer import MultiWaferSystem
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.search_space import (
    checkpointing_allowed,
    downsample_specs,
    plan_for,
    prune_specs,
    select_fastest,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario


def pipeline_degrees_for(
    scheme: BaselineScheme, num_wafers: int, allow_sub_wafer_pp: bool = True
) -> List[int]:
    """Pipeline degrees a scheme considers on ``num_wafers`` wafers.

    Baselines without a wafer-tailored parallelism need PP to be a multiple of
    the wafer count (the paper observes PP = k*N); TEMP can additionally use a
    PP degree equal to the wafer count or even lower is impossible (a stage
    cannot span wafers), so its candidates are {N, 2N} while baselines explore
    {N, 2N, 4N}.
    """
    if num_wafers < 1:
        raise ValueError("num_wafers must be >= 1")
    if scheme is BaselineScheme.TEMP:
        return [num_wafers, 2 * num_wafers]
    degrees = [num_wafers, 2 * num_wafers, 4 * num_wafers]
    if not allow_sub_wafer_pp:
        degrees = [num_wafers]
    return degrees


def run_multiwafer_scenario(
    scenario: "Scenario",
    plan_cache: PlanCache,
    wafer: WaferScaleChip,
    config: Optional[SimulatorConfig],
) -> PlanResult:
    """Run the multi-wafer (pipelined) search described by ``scenario``.

    The scenario's hardware spec supplies the wafer count and the number of
    pipeline microbatches; the solver spec supplies scheme, engine, the
    TATP cap and the ``max_candidates`` cap. ``wafer`` is a healthy chip of
    the scenario's geometry, which every wafer of the system shares, and
    ``config`` its simulator knobs (``None`` for the defaults).
    ``plan_cache`` memoises ``analyze_model``.

    The candidates of every admissible pipeline degree are pruned together
    and capped like the single-wafer search's, each runs the plan
    :func:`~repro.solver.search_space.plan_for` picks (checkpointed when
    only that fits, except under Megatron-1), and
    :func:`~repro.solver.search_space.select_fastest` picks the result:
    the fastest configuration that fits in memory wins, and only
    configurations that fit are mapped and simulated. When none fits, the
    result is flagged OOM and is the configuration with the least memory
    pressure; when pruning leaves no candidate at all, the one with the
    smallest memory footprint is simulated and reported as the OOM result.
    """
    solver = scenario.solver
    scheme = solver.resolved_scheme()
    model = scenario.workload.resolve()
    num_wafers = scenario.hardware.num_wafers
    num_microbatches = scenario.hardware.num_microbatches
    system = MultiWaferSystem(num_wafers, wafer=wafer)
    simulator = WaferSimulator(wafer, config)
    dies_per_wafer = wafer.config.num_dies

    # A pipeline stage must fit on one wafer.
    degrees = [pp for pp in pipeline_degrees_for(scheme, num_wafers)
               if 1 <= system.total_dies // pp <= dies_per_wafer]
    all_specs = candidate_specs(
        scheme, system.total_dies,
        max_tp=min(32, model.num_heads),
        max_tatp=solver.max_tatp,
        pipeline_degrees=degrees,
    )
    specs = prune_specs(all_specs, model, wafer.config, memory_margin=2.0,
                        plan_cache=plan_cache)
    if not specs and all_specs:
        # Pruning dropped every configuration as hopelessly over capacity;
        # report the least-infeasible one as the OOM result.
        specs = [min(all_specs,
                     key=lambda s: plan_cache.analyze(model, s).memory.total)]
    if solver.max_candidates is not None:
        specs = downsample_specs(specs, solver.max_candidates)

    capacity = wafer.config.die.hbm.capacity
    allow_checkpointing = checkpointing_allowed(scheme)
    best_spec, report, oom = select_fastest(
        ((spec, plan_for(plan_cache, model, spec, spec.total_degree, capacity,
                         allow_checkpointing, num_microbatches))
         for spec in specs),
        capacity,
        lambda plan: _pipelined_report(plan, solver.engine, system, simulator,
                                       num_microbatches))
    if report is None:
        raise ValueError(f"no feasible configuration found for {model.name} "
                         f"on {num_wafers} wafers")
    return PlanResult.from_report("multi_wafer", scenario, model.name,
                                  best_spec, report, oom, len(specs))


def _pipelined_report(
    plan: ExecutionPlan,
    engine: str,
    system: MultiWaferSystem,
    simulator: WaferSimulator,
    num_microbatches: int,
) -> SimulationReport:
    """Simulate one pipelined configuration on the multi-wafer system."""
    model, spec = plan.model, plan.spec
    report = simulator.simulate(plan, engine=engine)

    # The intra-stage simulation already contains the bubble for spec.pp; the
    # inter-stage transfers crossing wafers add the inter-wafer link cost.
    boundary_bytes = (
        model.batch_size / max(spec.data_parallel_degree, 1) / num_microbatches
        * model.seq_length / max(spec.sequence_split_degree, 1)
        * model.hidden_size * model.dtype.bytes
    )
    cross_wafer_time = 0.0
    for stage in range(spec.pp - 1):
        if system.stage_boundary_crosses_wafer(stage, spec.pp):
            cross_wafer_time += 2 * num_microbatches * \
                system.inter_stage_transfer_time(stage, spec.pp, boundary_bytes)

    step_time = report.step_time + cross_wafer_time
    throughput = model.tokens_per_batch / step_time if step_time > 0 else 0.0
    return replace(report, step_time=step_time, throughput=throughput,
                   cross_wafer_time=cross_wafer_time)
