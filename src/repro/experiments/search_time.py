"""§VIII-H: search-time comparison of the DLS algorithm vs exhaustive search.

The paper's dual-level search finds the optimal configuration in minutes,
more than 200x faster than the ILP formulation. The figure's one cell
measures both the wall-clock time and the number of cost-model evaluations
of (a) the dual-level DP + GA search and (b) an exhaustive joint enumeration
(the ILP stand-in), over the same representative-layer graph and candidate
space.
"""

from __future__ import annotations

import time

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.costmodel.tables import CostTables
from repro.parallelism.baselines import BaselineScheme
from repro.runner.registry import register
from repro.simulation.config import SimulatorConfig
from repro.solver.dp import optimize_segments
from repro.solver.exhaustive import ExhaustiveSolver
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import SearchSpace, downsample_specs
from repro.workloads.transformer import representative_layer_graph


def scenario_for_search(model: str, max_candidates: int, exhaustive_cap: int,
                        ga_generations: int) -> Scenario:
    """The :class:`Scenario` of one search-time comparison cell.

    ``exhaustive_cap`` bounds only the exhaustive baseline, not the plan
    request, so it stays a cell parameter.
    """
    return Scenario(
        workload=WorkloadSpec(model=model),
        solver=SolverSpec(scheme="temp", engine="tcme",
                          max_candidates=max_candidates,
                          ga_generations=ga_generations),
    )


@register(
    figure="search_time",
    paper="§VIII-H",
    title="Search time: dual-level search vs exhaustive enumeration",
    default_grid=[{"model": "gpt3-76b", "max_candidates": 12,
                   "exhaustive_cap": 20000, "ga_generations": 10}],
    reduced_grid=[{"model": "gpt3-6.7b", "max_candidates": 6,
                   "exhaustive_cap": 2000, "ga_generations": 4}],
    schema=("model", "max_candidates", "exhaustive_cap", "ga_generations",
            "num_candidates", "num_operators", "dls_seconds", "dls_cost",
            "dls_evaluations", "exhaustive_seconds", "exhaustive_cost",
            "exhaustive_evaluations", "exhaustive_truncated",
            "exhaustive_total_space", "projected_speedup"),
    description="Wall-clock time and cost-model evaluation counts of the "
                "DP+GA dual-level search against a capped exhaustive joint "
                "enumeration (the ILP stand-in). Timing columns are "
                "wall-clock measurements and vary between runs.",
    scenario=scenario_for_search,
)
def search_time_cell(service, model, max_candidates, exhaustive_cap,
                     ga_generations):
    """The single timed comparison cell of §VIII-H."""
    scenario = scenario_for_search(model, max_candidates, exhaustive_cap,
                                   ga_generations)
    config = SimulatorConfig()
    wafer_config = scenario.hardware.resolve_config()
    model_config = scenario.workload.resolve()
    space = SearchSpace(model=model_config,
                        num_devices=scenario.hardware.num_dies,
                        scheme=BaselineScheme.TEMP)
    candidates = space.pruned_candidates(wafer_config)
    if not candidates:
        candidates = space.candidates()
    candidates = downsample_specs(candidates, scenario.solver.max_candidates)
    graph = representative_layer_graph(model_config)

    # Dual-level search: DP followed by GA refinement, both levels reading the
    # same vectorized cost tables. Table construction is part of the timed
    # region — it is work the scalar implementation performed inside the DP.
    start = time.perf_counter()
    tables = CostTables(graph, candidates, wafer_config, config)
    dp_result = optimize_segments(graph, candidates, wafer_config, config,
                                  tables=tables)
    refiner = GeneticRefiner(
        graph, candidates, wafer_config, config,
        genetic_config=GeneticConfig(
            generations=scenario.solver.ga_generations, population_size=12),
        tables=tables)
    ga_result = refiner.refine(initial_assignment=dp_result.assignment)
    dls_seconds = time.perf_counter() - start

    # Exhaustive (ILP stand-in), capped so the benchmark terminates.
    exhaustive = ExhaustiveSolver(wafer_config, config,
                                  max_evaluations=exhaustive_cap).search(
                                      graph, candidates)
    total_space = ExhaustiveSolver.total_combinations(graph.num_nodes,
                                                      len(candidates))
    # The exhaustive time extrapolated to the full joint space, against the
    # dual-level search's.
    projected_seconds = (
        exhaustive.elapsed_seconds / exhaustive.evaluations * total_space
        if exhaustive.evaluations > 0 else 0.0)
    return [{
        "num_candidates": len(candidates),
        "num_operators": graph.num_nodes,
        "dls_seconds": dls_seconds,
        "dls_cost": min(dp_result.total_cost, ga_result.cost),
        "dls_evaluations": dp_result.evaluations + ga_result.evaluations,
        "exhaustive_seconds": exhaustive.elapsed_seconds,
        "exhaustive_cost": exhaustive.cost,
        "exhaustive_evaluations": exhaustive.evaluations,
        "exhaustive_truncated": exhaustive.truncated,
        "exhaustive_total_space": total_space,
        "projected_speedup": (projected_seconds / dls_seconds
                              if dls_seconds > 0 else float("inf")),
    }]
