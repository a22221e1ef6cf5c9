"""The Dual-Level Wafer Solver (DLWS).

DLWS orchestrates the full search for one scenario's model on one wafer:

1. enumerate and prune candidate configurations, evenly subsampled to an
   optional cap (:mod:`repro.solver.search_space`),
2. build the representative-layer compute graph and cut it at residual-free
   boundaries,
3. run the dynamic program to get a strong per-operator assignment,
4. refine it with the genetic algorithm,
5. rank the whole-model configurations, each with the plan
   :func:`~repro.solver.search_space.plan_for` picks, and simulate the best
   few with :func:`~repro.solver.search_space.select_fastest`, like every
   other search.

Steps 3-4 use the fast analytical/learned cost model; only a handful of
finalists that fit in memory reach the simulator, which is how the solver stays
~200x faster than exhaustive/ILP search while matching its quality. The
solver returns the flat :class:`~repro.api.result.SolverOutcome` it builds.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.api.result import SolverOutcome
from repro.api.scenario import Scenario, ScenarioError
from repro.costmodel.tables import CostTables, PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.memory import fits_in_memory
from repro.simulation.simulator import WaferSimulator
from repro.solver.dp import optimize_segments
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import (
    SearchSpace,
    checkpointing_allowed,
    downsample_specs,
    plan_for,
    select_fastest,
)
from repro.workloads.transformer import representative_layer_graph


#: The genetic refinement a solver runs; a scenario's ``ga_generations``
#: and ``seed`` replace its generation count and seed.
DEFAULT_GENETIC_CONFIG = GeneticConfig(generations=12, population_size=16)


class DualLevelWaferSolver:
    """Search for the optimal hybrid configuration of a model on a wafer.

    ``wafer`` is a healthy chip of the scenario's geometry and ``config``
    its simulator knobs (``None`` for the defaults), as the wafer paths of
    :meth:`~repro.api.service.PlanService.evaluate` take them; everything
    else the search reads comes from the scenario it solves.
    """

    def __init__(self, wafer: WaferScaleChip,
                 config: Optional[SimulatorConfig]) -> None:
        self.wafer = wafer
        self.simulator = WaferSimulator(wafer, config)
        self.config = self.simulator.config

    def solve(self, scenario: Scenario) -> SolverOutcome:
        """Find the best configuration of ``scenario``'s model on the wafer.

        Every knob comes from the solver spec; ``max_candidates`` caps the
        pruned candidates (evenly subsampled, endpoints kept), as in the
        single-wafer search.

        Raises:
            ScenarioError: for a scenario the solver cannot plan: another
                platform, several wafers, a fault study, a pinned spec, or
                no configuration spanning the wafer's dies.
        """
        start = time.perf_counter()
        _check_solvable(scenario)
        solver = scenario.solver
        genetic_config = replace(
            DEFAULT_GENETIC_CONFIG, seed=solver.seed,
            generations=(DEFAULT_GENETIC_CONFIG.generations
                         if solver.ga_generations is None
                         else solver.ga_generations))
        model = scenario.workload.resolve()
        scheme = solver.resolved_scheme()
        num_devices = self.wafer.num_dies
        capacity = self.wafer.config.die.hbm.capacity
        # One plan cache per solve: pruning, finalist ranking, and finalist
        # simulation all share a single analyze_model result per (model, spec).
        plan_cache = PlanCache()
        space = SearchSpace(
            model=model,
            num_devices=num_devices,
            scheme=scheme,
            max_tatp=solver.max_tatp,
            pipeline_degrees=solver.pipeline_degrees,
        )
        with span("solver.prune"):
            candidates = space.pruned_candidates(
                self.wafer.config, plan_cache=plan_cache)
            if not candidates:
                candidates = space.candidates()
            if not candidates:
                raise ScenarioError(
                    f"no {scheme.value} configuration with pipeline degrees "
                    f"{list(solver.pipeline_degrees)} spans the "
                    f"{num_devices} dies")
            if solver.max_candidates is not None:
                candidates = downsample_specs(candidates, solver.max_candidates)

        # One set of vectorized cost tables feeds both solver levels. The
        # fabric's analytic hop model is 1 on the default mesh, higher on
        # fabrics whose canonical die groups cannot ring cheaply.
        with span("solver.tables", candidates=len(candidates)):
            layer_graph = representative_layer_graph(model)
            tables = CostTables(
                layer_graph, candidates, self.wafer.config, self.config,
                hop_factor=self.wafer.topology.collective_hop_factor())

        # Level 1: dynamic program over the representative layer.
        with span("solver.dp", candidates=len(candidates)):
            dp_result = optimize_segments(
                layer_graph, candidates, self.wafer.config, self.config,
                memory_limit=capacity, tables=tables)

        # Level 2: genetic refinement of the DP assignment.
        with span("solver.ga", generations=genetic_config.generations):
            refiner = GeneticRefiner(
                layer_graph, candidates, self.wafer.config, self.config,
                genetic_config=genetic_config, tables=tables)
            ga_result = refiner.refine(
                initial_assignment=dp_result.assignment)

        # Finalists: whole-model candidates ranked by the fast cost model; the
        # full simulator and the mapping engine pick the fastest that fits.
        allow_checkpointing = checkpointing_allowed(scheme)
        plans = [(spec, plan_for(plan_cache, model, spec, num_devices,
                                 capacity, allow_checkpointing))
                 for spec in candidates]
        finalists = self._select_finalists(plans, solver.num_finalists)
        with span("solver.simulate", finalists=len(finalists)):
            best_spec, report, oom = select_fastest(
                finalists, capacity,
                partial(self.simulator.simulate, engine=solver.engine))

        return SolverOutcome(
            model=model.name,
            spec=best_spec.label(),
            oom=oom,
            step_time=report.step_time,
            throughput=report.throughput,
            candidates_considered=len(candidates),
            finalists_simulated=len(finalists),
            dp_cost=dp_result.total_cost,
            ga_cost=ga_result.cost,
            evaluations=dp_result.evaluations + ga_result.evaluations,
            search_seconds=time.perf_counter() - start,
            plan_cache_hits=plan_cache.hits,
            plan_cache_misses=plan_cache.misses,
        )

    def _select_finalists(
        self,
        plans: Sequence[Tuple[ParallelSpec, ExecutionPlan]],
        num_finalists: int,
    ) -> List[Tuple[ParallelSpec, ExecutionPlan]]:
        """Rank ``(spec, plan)`` candidates with the fast analytical score
        (those that fit first) and keep the best ``num_finalists``."""
        capacity = self.wafer.config.die.hbm.capacity
        ranked = sorted(
            plans, key=lambda item: (
                not fits_in_memory(item[1].memory, capacity),
                self._fast_score(item[1])))
        return ranked[:num_finalists]

    def _fast_score(self, plan: ExecutionPlan) -> float:
        """Cheap step-time proxy: compute time + critical wire time."""
        sustained = self.wafer.config.die.peak_flops * self.config.base_mfu
        compute = plan.flops_per_device / sustained
        bandwidth = self.wafer.config.d2d.bandwidth
        critical = plan.critical_comm_bytes() / bandwidth
        exposed = max(0.0, plan.overlap_comm_bytes() / bandwidth - compute)
        return compute + critical + exposed


def _check_solvable(scenario: Scenario) -> None:
    """Reject the scenarios the solver cannot plan: it searches one healthy
    wafer, so the knobs it would silently drop are errors."""
    hardware = scenario.hardware
    if hardware.platform != "wafer":
        raise ScenarioError(
            "the dual-level solver only runs on the wafer platform")
    if hardware.num_wafers > 1:
        raise ScenarioError(
            "the dual-level solver plans one wafer; set num_wafers=1")
    if hardware.has_fault_study:
        raise ScenarioError(
            "the dual-level solver plans a healthy wafer; drop the fault "
            "rates")
    if scenario.solver.fixed_spec is not None:
        raise ScenarioError(
            "the dual-level solver searches the configuration; drop "
            "solver.fixed_spec")
