"""TEMP reproduction: memory-efficient physical-aware tensor partition-mapping
for wafer-scale chips (HPCA 2026).

Public API overview
-------------------

Hardware substrate
    :class:`repro.hardware.WaferScaleChip`, :class:`repro.hardware.WaferConfig`,
    :class:`repro.hardware.MultiWaferSystem`,
    :class:`repro.hardware.GPUClusterConfig` (the Fig. 15 comparator),
    :class:`repro.hardware.FaultModel`.

Workloads
    :func:`repro.workloads.get_model`, :func:`repro.workloads.build_model_graph`,
    :class:`repro.workloads.TrainingStep`.

Parallelism
    :class:`repro.parallelism.ParallelSpec`, :func:`repro.parallelism.analyze_model`,
    :func:`repro.parallelism.bidirectional_schedule` (TATP, Algorithm 1),
    :func:`repro.parallelism.candidate_specs`.

Mapping
    :func:`repro.mapping.get_engine` ("smap", "gmap", "tcme"),
    :class:`repro.mapping.TCMEEngine`.

Simulation
    :class:`repro.simulation.WaferSimulator`, :class:`repro.simulation.SimulatorConfig`.

Solver
    :class:`repro.solver.DualLevelWaferSolver`.

Scenario API (the blessed request/response surface)
    :class:`repro.api.Scenario` (:class:`repro.api.WorkloadSpec` /
    :class:`repro.api.HardwareSpec` / :class:`repro.api.SolverSpec`),
    :class:`repro.api.PlanService` with ``evaluate(scenario) -> PlanResult``
    and ``solve(scenario) -> SolverOutcome``; ``python -m repro plan`` is the
    CLI front end.

Plan server (cached, concurrent Scenario serving)
    :class:`repro.server.PlanScheduler` (dedup, one request per persistent
    worker lane), :class:`repro.server.ResultStore` (SQLite,
    keyed by :meth:`repro.api.Scenario.cache_key`),
    :class:`repro.server.PlanServer` / :class:`repro.server.PlanClient`
    (``repro serve`` / ``repro submit``).

Framework (the evaluation paths ``PlanService`` dispatches to)
    :func:`repro.core.framework.run_baseline_scenario`,
    :func:`repro.core.framework.simulate_fixed_spec`,
    :func:`repro.core.multiwafer.run_multiwafer_scenario` and
    :func:`repro.core.fault_tolerance.run_fault_scenario`. All four take
    ``(scenario, plan_cache, wafer, config)`` and build the scenario's
    :class:`repro.api.result.PlanResult` themselves. TEMP itself, and its
    +TATP / +TCME ablations, are :meth:`repro.api.SolverSpec.for_framework`.
"""

from repro.api.scenario import (
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)
from repro.api.service import PlanResult, PlanService, SolverOutcome
from repro.hardware.wafer import WaferScaleChip
from repro.hardware.config import WaferConfig, default_wafer_config
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model
from repro.simulation.simulator import WaferSimulator
from repro.simulation.config import SimulatorConfig
from repro.workloads.models import get_model, list_models

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "ScenarioError",
    "WorkloadSpec",
    "HardwareSpec",
    "SolverSpec",
    "PlanService",
    "PlanResult",
    "SolverOutcome",
    "WaferScaleChip",
    "WaferConfig",
    "default_wafer_config",
    "ParallelSpec",
    "analyze_model",
    "WaferSimulator",
    "SimulatorConfig",
    "get_model",
    "list_models",
    "__version__",
]
