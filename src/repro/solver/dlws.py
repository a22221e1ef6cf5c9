"""The Dual-Level Wafer Solver (DLWS).

DLWS orchestrates the full search for one model on one wafer:

1. enumerate and prune candidate configurations (:mod:`repro.solver.search_space`),
2. build the representative-layer compute graph and cut it at residual-free
   boundaries,
3. run the dynamic program to get a strong per-operator assignment,
4. refine it with the genetic algorithm,
5. evaluate the best whole-model configurations through the full simulator and
   return the winner together with its simulation report.

Steps 3-4 use the fast analytical/learned cost model; only a handful of
finalists that fit in memory reach the simulator, which is how the solver stays
~200x faster than exhaustive/ILP search while matching its quality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.costmodel.tables import CostTables, PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.baselines import BaselineScheme
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.dp import optimize_segments
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import SearchSpace, select_fastest
from repro.workloads.models import ModelConfig
from repro.workloads.transformer import representative_layer_graph


#: The genetic refinement a solver runs unless given its own configuration.
DEFAULT_GENETIC_CONFIG = GeneticConfig(generations=12, population_size=16)


@dataclass
class SolverResult:
    """Outcome of one DLWS run."""

    model: ModelConfig
    best_spec: ParallelSpec
    best_report: SimulationReport
    candidates_considered: int
    finalists_simulated: int  # finalists considered, mapped or not
    dp_cost: float
    ga_cost: float
    search_seconds: float
    evaluations: int
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0


class DualLevelWaferSolver:
    """Search for the optimal hybrid configuration of a model on a wafer."""

    def __init__(
        self,
        wafer: Optional[WaferScaleChip] = None,
        config: Optional[SimulatorConfig] = None,
        genetic_config: Optional[GeneticConfig] = None,
        num_finalists: int = 8,
        mapping_engine: str = "tcme",
    ) -> None:
        if num_finalists < 1:
            raise ValueError("num_finalists must be at least 1")
        self.wafer = wafer or WaferScaleChip()
        self.config = config or SimulatorConfig()
        self.genetic_config = genetic_config or DEFAULT_GENETIC_CONFIG
        self.num_finalists = num_finalists
        self.mapping_engine = mapping_engine
        self.simulator = WaferSimulator(self.wafer, self.config)

    def solve(
        self,
        model: ModelConfig,
        scheme: BaselineScheme = BaselineScheme.TEMP,
        max_tatp: int = 32,
        pipeline_degrees: Sequence[int] = (1,),
    ) -> SolverResult:
        """Find the best configuration of ``model`` on this solver's wafer."""
        start = time.perf_counter()
        num_devices = self.wafer.num_dies
        # One plan cache per solve: pruning, finalist ranking, and finalist
        # simulation all share a single analyze_model result per (model, spec).
        plan_cache = PlanCache()
        space = SearchSpace(
            model=model,
            num_devices=num_devices,
            scheme=scheme,
            max_tatp=max_tatp,
            pipeline_degrees=pipeline_degrees,
        )
        with span("solver.prune"):
            candidates = space.pruned_candidates(
                self.wafer.config, plan_cache=plan_cache)
            if not candidates:
                candidates = space.candidates()

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
                memory_limit=self.wafer.config.die.hbm.capacity,
                tables=tables)

        # Level 2: genetic refinement of the DP assignment.
        with span("solver.ga",
                  generations=self.genetic_config.generations):
            refiner = GeneticRefiner(
                layer_graph, candidates, self.wafer.config, self.config,
                genetic_config=self.genetic_config, tables=tables)
            ga_result = refiner.refine(
                initial_assignment=dp_result.assignment)

        # Finalists: whole-model candidates ranked by the fast cost model; the
        # full simulator and the TCME mapping pick the fastest that fits.
        finalists = self._select_finalists(model, candidates, plan_cache)
        with span("solver.simulate", finalists=len(finalists)):
            best_spec, best_report, _ = select_fastest(
                ((spec, plan_cache.analyze(model, spec,
                                           num_devices=num_devices))
                 for spec in finalists),
                self.wafer.config.die,
                partial(self.simulator.simulate, engine=self.mapping_engine))

        elapsed = time.perf_counter() - start
        return SolverResult(
            model=model,
            best_spec=best_spec,
            best_report=best_report,
            candidates_considered=len(candidates),
            finalists_simulated=len(finalists),
            dp_cost=dp_result.total_cost,
            ga_cost=ga_result.cost,
            search_seconds=elapsed,
            evaluations=dp_result.evaluations + ga_result.evaluations,
            plan_cache_hits=plan_cache.hits,
            plan_cache_misses=plan_cache.misses,
        )

    def _select_finalists(
        self,
        model: ModelConfig,
        candidates: Sequence[ParallelSpec],
        plan_cache: PlanCache,
    ) -> List[ParallelSpec]:
        """Rank candidates with the fast analytical plan and keep the best few."""
        scored: List[tuple] = []
        capacity = self.wafer.config.die.hbm.capacity
        for spec in candidates:
            plan = plan_cache.analyze(model, spec, num_devices=self.wafer.num_dies)
            fits = plan.memory.total <= capacity
            score = self._fast_score(plan)
            scored.append((not fits, score, spec))
        scored.sort(key=lambda item: (item[0], item[1]))
        finalists = [spec for _, _, spec in scored[: self.num_finalists]]
        return finalists

    def _fast_score(self, plan: ExecutionPlan) -> float:
        """Cheap step-time proxy: compute time + critical wire time."""
        sustained = self.wafer.config.die.peak_flops * self.config.base_mfu
        compute = plan.flops_per_device / sustained
        bandwidth = self.wafer.config.d2d.bandwidth
        critical = plan.critical_comm_bytes() / bandwidth
        exposed = max(0.0, plan.overlap_comm_bytes() / bandwidth - compute)
        return compute + critical + exposed
