"""Experiment runners — one per table/figure of the paper's evaluation.

Every module registers its figure with the experiment registry
(:mod:`repro.runner.registry`) at import time: the default/reduced
parameter grids, the manifest row schema, and either a scenario builder
plus row mapper or a cell runner. The registry is the single source of
truth — ``__all__`` below, the ``python -m repro`` CLI, the sweep
orchestrator, the ``repro sweep`` portfolios, and the generated
``EXPERIMENTS.md`` index are all derived from it.

| Figure | Runner |
|--------|--------|
| Fig. 4(b)/(c) | :mod:`repro.experiments.fig04_motivation` |
| Fig. 7(c)     | :mod:`repro.experiments.fig07_ring_utilization` |
| Fig. 9        | :mod:`repro.experiments.fig09_sweet_spot` |
| Fig. 13       | :mod:`repro.experiments.fig13_overall` |
| Fig. 14       | :mod:`repro.experiments.fig14_power` |
| Fig. 15       | :mod:`repro.experiments.fig15_gpu_comparison` |
| Fig. 16       | :mod:`repro.experiments.fig16_ablation` |
| Fig. 17       | :mod:`repro.experiments.fig17_parallel_configs` |
| Fig. 18       | :mod:`repro.experiments.fig18_convergence` |
| Fig. 19       | :mod:`repro.experiments.fig19_multiwafer` |
| Fig. 20       | :mod:`repro.experiments.fig20_fault_tolerance` |
| Fig. 21       | :mod:`repro.experiments.fig21_cost_model` |
| §VIII-H       | :mod:`repro.experiments.search_time` |
| topology zoo  | :mod:`repro.experiments.fabric_zoo` |
"""

import importlib

# Importing the figure modules populates the registry.
from repro.experiments import fig04_motivation  # noqa: F401
from repro.experiments import fig07_ring_utilization  # noqa: F401
from repro.experiments import fig09_sweet_spot  # noqa: F401
from repro.experiments import fig13_overall  # noqa: F401
from repro.experiments import fig14_power  # noqa: F401
from repro.experiments import fig15_gpu_comparison  # noqa: F401
from repro.experiments import fig16_ablation  # noqa: F401
from repro.experiments import fig17_parallel_configs  # noqa: F401
from repro.experiments import fig18_convergence  # noqa: F401
from repro.experiments import fig19_multiwafer  # noqa: F401
from repro.experiments import fig20_fault_tolerance  # noqa: F401
from repro.experiments import fig21_cost_model  # noqa: F401
from repro.experiments import search_time  # noqa: F401
from repro.experiments import fabric_zoo  # noqa: F401
from repro.runner import registry as _registry


def _export_entrypoints():
    """Re-export every registered entrypoint.

    ``__all__`` is derived from the registry, so a newly registered figure's
    public runners become importable from ``repro.experiments`` without
    touching this file.
    """
    names = []
    for experiment in _registry.all_experiments():
        module = importlib.import_module(experiment.module)
        for name in experiment.entrypoints:
            globals()[name] = getattr(module, name)
            names.append(name)
    return sorted(names)


__all__ = _export_entrypoints()
