"""Dual-Level Wafer Solver (DLWS, Section VII).

The solver finds the best hybrid parallel configuration for a model on a
wafer. It combines:

* :mod:`repro.solver.search_space` — enumeration and pruning of candidate
  :class:`~repro.parallelism.spec.ParallelSpec` configurations, and the
  selection routine every search shares (``select_fastest``),
* :mod:`repro.solver.dp` — the first level: graph partitioning at
  residual-free boundaries followed by a dynamic program that assigns a spec
  to each operator chain segment,
* :mod:`repro.solver.genetic` — the second level: a genetic algorithm that
  refines the spec assignment (crossover / mutation / elitist selection),
* :mod:`repro.solver.exhaustive` — the slow exhaustive baseline standing in
  for the ILP solver of the search-time comparison (§VIII-H),
* :mod:`repro.solver.dlws` — the orchestrating :class:`DualLevelWaferSolver`.
"""

from repro.solver.search_space import SearchSpace, prune_specs
from repro.solver.dp import DynamicProgrammingResult, optimize_segments
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.exhaustive import ExhaustiveSolver
from repro.solver.dlws import DualLevelWaferSolver

__all__ = [
    "SearchSpace",
    "prune_specs",
    "DynamicProgrammingResult",
    "optimize_segments",
    "GeneticConfig",
    "GeneticRefiner",
    "ExhaustiveSolver",
    "DualLevelWaferSolver",
]
