"""Experiment registry, figure runner, and artifact pipeline.

The package turns the figure reproductions under :mod:`repro.experiments`
into one uniform evaluation grid:

* :mod:`repro.runner.registry` — every figure module registers its
  parameter grids and manifest row schema together with either a scenario
  builder and row mapper (a Scenario figure) or a cell runner (a computed
  figure),
* :mod:`repro.runner.orchestrator` — runs figures on one plan scheduler:
  Scenario figures are swept as portfolios over its ``jobs`` lanes,
  computed figures run their cells in-process,
* :mod:`repro.runner.manifest` — the ``results/<figure>.json`` artifact
  format ``repro run`` and ``repro sweep`` emit, plus its validator,
* :mod:`repro.runner.docs` — the generated ``EXPERIMENTS.md`` index,
* :mod:`repro.runner.cli` — the ``python -m repro`` command line.
"""

from repro.runner.manifest import validate_manifest, write_manifest
from repro.runner.orchestrator import run_all, run_experiment
from repro.runner.registry import (
    Experiment,
    all_experiments,
    expand_grid,
    get_experiment,
    register,
)

__all__ = [
    "Experiment",
    "all_experiments",
    "expand_grid",
    "get_experiment",
    "register",
    "run_all",
    "run_experiment",
    "validate_manifest",
    "write_manifest",
]
