"""The single-wafer baseline search behind the Scenario API.

:func:`run_baseline_scenario` is the engine room behind
:meth:`repro.api.PlanService.evaluate`: it consumes a
:class:`~repro.api.scenario.Scenario`, enumerates the scheme's candidate
configurations, simulates each with the requested mapping engine, and keeps
the best-performing configuration that does not run out of memory (reporting
the OOM if none fits). The TEMP framework itself is the ``temp`` scheme with
the TCME engine (:meth:`~repro.api.scenario.SolverSpec.for_framework`, which
also expresses the +TATP/+TCME ablation switches).
:func:`simulate_fixed_spec` is the no-search variant for scenarios that pin
one :class:`ParallelSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.costmodel.tables import PlanCache
from repro.hardware.wafer import WaferScaleChip
from repro.obs.tracing import span
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.simulation.config import SimulatorConfig
from repro.simulation.simulator import SimulationReport, WaferSimulator
from repro.solver.search_space import prune_specs
from repro.workloads.models import ModelConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario


@dataclass
class BaselineResult:
    """Best configuration found for one (scheme, mapping engine) pair."""

    scheme: BaselineScheme
    engine: str
    model: ModelConfig
    best_spec: Optional[ParallelSpec]
    report: Optional[SimulationReport]
    oom: bool
    candidates_evaluated: int
    all_reports: Dict[str, SimulationReport] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Readable label like "mesp+gmap" used in figures."""
        return f"{self.scheme.value}+{self.engine}"


def scheme_max_tp(scheme: BaselineScheme, model: ModelConfig) -> int:
    """The tensor-parallel cap a scheme's recipe allows on ``model``.

    Megatron recipes keep the tensor-parallel degree within one
    high-bandwidth group of 8; TEMP's own space may push TP (and TATP)
    further.
    """
    if scheme in (BaselineScheme.MEGATRON1, BaselineScheme.MESP):
        return min(8, model.num_heads)
    return min(32, model.num_heads)


def run_baseline_scenario(
    scenario: "Scenario",
    plan_cache: Optional[PlanCache] = None,
    wafer: Optional[WaferScaleChip] = None,
    config: Optional[SimulatorConfig] = None,
) -> BaselineResult:
    """Run the single-wafer baseline search described by ``scenario``.

    ``wafer`` and ``config`` default to what the scenario's hardware spec
    resolves to; callers holding an already-built (identical) wafer may pass
    it to skip reconstruction. ``plan_cache`` lets a caller evaluating many
    scenarios — e.g. a sweep-orchestrator worker — share one memoised
    ``analyze_model`` across evaluations; the cache is pure memoisation, so
    results are identical with a private or a shared cache.
    """
    solver = scenario.solver
    return _search_baseline(
        solver.resolved_scheme(),
        solver.engine,
        scenario.workload.resolve(),
        wafer=wafer if wafer is not None else scenario.hardware.resolve_wafer(),
        config=config if config is not None else scenario.hardware.resolve_simulator(),
        max_tatp=solver.max_tatp,
        pipeline_degrees=solver.pipeline_degrees,
        max_candidates=solver.max_candidates,
        plan_cache=plan_cache,
    )


def simulate_fixed_spec(
    scenario: "Scenario",
    plan_cache: Optional[PlanCache] = None,
    wafer: Optional[WaferScaleChip] = None,
    config: Optional[SimulatorConfig] = None,
) -> BaselineResult:
    """Evaluate the one pinned configuration of a fixed-spec scenario.

    No search happens: the solver spec's ``fixed_spec`` is analysed and
    simulated as-is (with the usual activation-checkpointing retry on OOM,
    unless the scenario disables ``allow_checkpoint_fallback``).
    """
    solver = scenario.solver
    spec = solver.resolve_fixed_spec()
    model = scenario.workload.resolve()
    wafer = wafer if wafer is not None else scenario.hardware.resolve_wafer()
    config = (config if config is not None
              else scenario.hardware.resolve_simulator())
    plan_cache = plan_cache if plan_cache is not None else PlanCache()
    simulator = WaferSimulator(wafer, config)
    with span("evaluate.simulate", spec=spec.label()):
        report = _simulate_with_fallback(
            simulator, plan_cache, model, spec, wafer.num_dies, solver.engine,
            allow_checkpointing=solver.allow_checkpoint_fallback)
    return BaselineResult(
        scheme=solver.resolved_scheme(),
        engine=solver.engine,
        model=model,
        best_spec=spec,
        report=report,
        oom=report.oom,
        candidates_evaluated=1,
        all_reports={spec.label(): report},
    )


def _simulate_with_fallback(
    simulator: WaferSimulator,
    plan_cache: PlanCache,
    model: ModelConfig,
    spec: ParallelSpec,
    num_devices: int,
    engine: str,
    allow_checkpointing: bool,
) -> SimulationReport:
    """Simulate one spec, retrying with activation checkpointing on OOM."""
    plan = plan_cache.analyze(model, spec, num_devices=num_devices)
    report = simulator.simulate(plan, engine=engine)
    if report.oom and allow_checkpointing:
        checkpointed_plan = plan_cache.analyze(
            model, spec, num_devices=num_devices,
            activation_checkpointing=True)
        checkpointed = simulator.simulate(checkpointed_plan, engine=engine)
        if not checkpointed.oom:
            report = checkpointed
    return report


def _search_baseline(
    scheme: BaselineScheme,
    engine: str,
    model: ModelConfig,
    wafer: Optional[WaferScaleChip] = None,
    config: Optional[SimulatorConfig] = None,
    max_tatp: int = 32,
    pipeline_degrees: Sequence[int] = (1,),
    max_candidates: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> BaselineResult:
    """Evaluate one scheme with one mapping engine on one model.

    Every candidate configuration of the scheme is analysed and simulated;
    the fastest configuration that fits in memory wins. When no configuration
    fits, the result is flagged OOM and carries the least-over-capacity
    report (this is how the OOM bars of Fig. 13 are produced).
    """
    wafer = wafer or WaferScaleChip()
    simulator = WaferSimulator(wafer, config)
    num_devices = wafer.num_dies
    # Pruning and the simulation loop below analyse the same specs; the plan
    # cache derives each execution plan exactly once.
    plan_cache = plan_cache if plan_cache is not None else PlanCache()
    with span("evaluate.candidates", scheme=scheme.value):
        all_specs = candidate_specs(
            scheme, num_devices,
            max_tp=scheme_max_tp(scheme, model),
            max_tatp=max_tatp,
            pipeline_degrees=pipeline_degrees,
        )
        specs = prune_specs(all_specs, model, wafer.config, memory_margin=2.0,
                            plan_cache=plan_cache)
        if not specs and all_specs:
            # Every configuration is hopelessly over capacity (e.g. Megatron-1
            # on a 175B model); keep the least-infeasible one so the OOM bar
            # can still be reported.
            specs = [min(
                all_specs,
                key=lambda s: plan_cache.analyze(
                    model, s, num_devices=num_devices).memory.total)]
        if max_candidates is not None and len(specs) > max_candidates:
            specs = downsample_specs(specs, max_candidates)

    reports: Dict[str, SimulationReport] = {}
    best_spec: Optional[ParallelSpec] = None
    best_report: Optional[SimulationReport] = None
    fallback_spec: Optional[ParallelSpec] = None
    fallback_report: Optional[SimulationReport] = None

    # Full activation recomputation is part of every scheme's toolbox except
    # Megatron-1's, whose replication-reliant execution the paper evaluates
    # with its published (selective-recompute-only) recipe.
    allow_checkpointing = scheme is not BaselineScheme.MEGATRON1

    with span("evaluate.simulate", candidates=len(specs)):
        for spec in specs:
            report = _simulate_with_fallback(
                simulator, plan_cache, model, spec, num_devices, engine,
                allow_checkpointing=allow_checkpointing)
            reports[spec.label()] = report
            if report.oom:
                if (fallback_report is None
                        or (report.memory_pressure
                            < fallback_report.memory_pressure)):
                    fallback_spec, fallback_report = spec, report
                continue
            if (best_report is None
                    or report.step_time < best_report.step_time):
                best_spec, best_report = spec, report

    if best_report is not None:
        return BaselineResult(
            scheme=scheme, engine=engine, model=model,
            best_spec=best_spec, report=best_report, oom=False,
            candidates_evaluated=len(specs), all_reports=reports)
    return BaselineResult(
        scheme=scheme, engine=engine, model=model,
        best_spec=fallback_spec, report=fallback_report, oom=True,
        candidates_evaluated=len(specs), all_reports=reports)


def downsample_specs(specs: List[ParallelSpec], limit: int) -> List[ParallelSpec]:
    """Evenly subsample a candidate list while keeping both endpoints."""
    if limit >= len(specs):
        return specs
    if limit == 1:
        return [specs[0]]
    # Spread limit indices over [0, len-1] inclusive; the stride is >= 1
    # (limit < len), so the rounded indices are strictly increasing and the
    # last one lands exactly on len(specs) - 1.
    stride = (len(specs) - 1) / (limit - 1)
    return [specs[min(round(index * stride), len(specs) - 1)]
            for index in range(limit)]
