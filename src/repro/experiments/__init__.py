"""The paper's evaluation — one module per table/figure.

Every module registers its figure with the experiment registry
(:mod:`repro.runner.registry`) at import time: the default/reduced
parameter grids, the manifest row schema, and either a scenario builder
plus row mapper or a cell runner. The registration is the figure: the
``python -m repro`` CLI, the figure runner, the ``repro sweep``
portfolios and the generated ``EXPERIMENTS.md`` index are all derived
from it, and the paper-shape checks under ``benchmarks/`` assert on the
rows ``repro run`` computes from it.

| Figure | Module |
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
