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
selection routine of every search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.costmodel.tables import PlanCache
from repro.hardware.multiwafer import MultiWaferSystem
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.search_space import prune_specs, select_fastest
from repro.workloads.models import ModelConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario


@dataclass
class MultiWaferResult:
    """Best pipelined configuration of a scheme on a multi-wafer system."""

    scheme: BaselineScheme
    engine: str
    model: ModelConfig
    num_wafers: int
    best_spec: Optional[ParallelSpec]
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    throughput: float
    oom: bool
    report: Optional[SimulationReport] = None

    def breakdown(self) -> Dict[str, float]:
        """Latency breakdown matching Fig. 19's bars."""
        return {
            "compute": self.compute_time,
            "communication": self.comm_time,
            "bubble": self.bubble_time,
        }


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
) -> MultiWaferResult:
    """Run the multi-wafer (pipelined) search described by ``scenario``.

    The scenario's hardware spec supplies the wafer count and the number of
    pipeline microbatches; the solver spec supplies scheme, engine, and the
    TATP cap. ``wafer`` is a healthy chip of the scenario's geometry, which
    every wafer of the system shares, and ``config`` its simulator knobs
    (``None`` for the defaults). ``plan_cache`` memoises ``analyze_model``.

    The candidates of every admissible pipeline degree are pruned together,
    and :func:`~repro.solver.search_space.select_fastest` picks the result:
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

    _, best, _ = select_fastest(
        ((spec, plan_cache.analyze(model, spec, num_devices=spec.total_degree,
                                   num_microbatches=num_microbatches))
         for spec in specs),
        wafer.config.die.hbm.capacity,
        lambda plan: _evaluate_plan(scheme, solver.engine, plan, system,
                                    simulator, num_microbatches))
    if best is None:
        raise ValueError(f"no feasible configuration found for {model.name} "
                         f"on {num_wafers} wafers")
    return best


def _evaluate_plan(
    scheme: BaselineScheme,
    engine: str,
    plan: ExecutionPlan,
    system: MultiWaferSystem,
    simulator: WaferSimulator,
    num_microbatches: int,
) -> MultiWaferResult:
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
    return MultiWaferResult(
        scheme=scheme,
        engine=engine,
        model=model,
        num_wafers=system.num_wafers,
        best_spec=spec,
        step_time=step_time,
        compute_time=report.compute_time,
        comm_time=report.total_comm_time + cross_wafer_time,
        bubble_time=report.bubble_time,
        throughput=throughput,
        oom=report.oom,
        report=report,
    )
