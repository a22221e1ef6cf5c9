"""The plan-service facade of the Scenario API.

:class:`PlanService` is the one front door to the framework's evaluation
paths: it owns the shared :class:`~repro.costmodel.tables.PlanCache`, caches
resolved wafers per hardware spec, and dispatches a
:class:`~repro.api.scenario.Scenario` to the single-wafer search, the
pinned-spec simulation, the multi-wafer (pipelined) search, the
fault-tolerance study, or the GPU comparator cluster.

The four wafer paths share one signature, ``(scenario, plan_cache, wafer,
config) -> PlanResult``: ``evaluate`` picks one and hands it the service's
plan cache, the cached chip of the scenario's hardware and its simulator
config, and the path builds its own :class:`~repro.api.result.PlanResult`
with :meth:`~repro.api.result.PlanResult.from_report`. Every search, the GPU
comparator included, picks its answer with
:func:`~repro.solver.search_space.select_fastest`.

``evaluate`` returns that record — flat, JSON-serializable, with one stable
schema across all paths (fields a path does not produce hold zeros /
``None``); ``solve`` hands the scenario to the dual-level solver, which
returns the flat :class:`SolverOutcome` it builds. :class:`PlanResult`,
:class:`SolverOutcome` and :data:`RESULT_KINDS` live in
:mod:`repro.api.result` and are re-exported here.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import fields
from typing import Dict, List, Tuple

from repro.api.result import RESULT_KINDS, PlanResult, SolverOutcome
from repro.api.scenario import SCHEMA_VERSION, HardwareSpec, Scenario
from repro.core.fault_tolerance import run_fault_scenario
from repro.core.framework import (
    run_baseline_scenario,
    scheme_max_tp,
    simulate_fixed_spec,
)
from repro.core.multiwafer import run_multiwafer_scenario
from repro.costmodel.tables import PlanCache
from repro.hardware.config import GPUClusterConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span, tracing_enabled
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import candidate_specs
from repro.simulation.gpu import GPUClusterSimulator
from repro.solver.dlws import DualLevelWaferSolver
from repro.solver.search_space import plan_for, select_fastest


class PlanService:
    """Facade dispatching scenarios to the framework's evaluation paths.

    One service instance owns one :class:`PlanCache`, so every scenario it
    evaluates shares memoised ``analyze_model`` results — the same sharing
    each scheduler lane worker has. The cache is pure memoisation:
    results are bit-identical with a private or a shared service.
    """

    def __init__(self) -> None:
        self.plan_cache = PlanCache()
        self.registry = MetricsRegistry()
        self._evaluate_hist = self.registry.histogram(
            "service.evaluate_seconds",
            help="end-to-end PlanService.evaluate latency")
        self._wafers: Dict[Tuple, WaferScaleChip] = {}

    def stats(self) -> Dict[str, object]:
        """Plain-JSON service counters.

        ``plan_cache`` is :meth:`PlanCache.stats` (hit/miss/size),
        ``wafers_cached`` the number of distinct hardware geometries
        resolved. Surfaced by ``repro plan --stats``; the plan server's
        ``GET /metrics`` carries the ``plan_cache`` part.
        """
        return {
            "plan_cache": self.plan_cache.stats(),
            "wafers_cached": len(self._wafers),
        }

    # Resolution caches ------------------------------------------------------------

    def wafer_for(self, hardware: HardwareSpec) -> WaferScaleChip:
        """A healthy wafer for ``hardware``, built once per geometry + fabric.

        The key holds every field :meth:`HardwareSpec.resolve_config` and
        the fabric read, so one chip serves every wafer path alike: the
        single-wafer, pinned-spec, solver and multi-wafer paths (a
        multi-wafer system's wafers are all this chip) and the healthy run
        of a fault study. Its topology memoises the routes it answers, so
        every scenario evaluated on the same hardware reuses them.
        """
        topology = (json.dumps(hardware.topology, sort_keys=True)
                    if hardware.topology is not None else None)
        key = (hardware.rows, hardware.cols, hardware.d2d_bandwidth,
               hardware.hbm_capacity, topology)
        wafer = self._wafers.get(key)
        if wafer is None:
            wafer = hardware.resolve_wafer()
            self._wafers[key] = wafer
        return wafer

    # Entry points ----------------------------------------------------------------

    def evaluate(self, scenario: Scenario) -> PlanResult:
        """Evaluate ``scenario`` and return the flat :class:`PlanResult`.

        With tracing enabled the result additionally carries a
        ``telemetry`` attribute — ``{"evaluate_seconds", "stages"}`` with
        the wall time of each direct child stage span (candidate search,
        simulation, solver levels). It is not a dataclass field: the
        serialized payload stays bit-identical either way.
        """
        start = time.perf_counter()
        with span("service.evaluate",
                  model=scenario.workload.model) as evaluate_span:
            hardware = scenario.hardware
            if hardware.platform == "gpu_cluster":
                result = self._evaluate_gpu(scenario)
            else:
                # The wafer paths are read from the module globals at call
                # time, so a wrapper patched onto this module sees them.
                if hardware.has_fault_study:
                    path = run_fault_scenario
                elif hardware.num_wafers > 1:
                    path = run_multiwafer_scenario
                elif scenario.solver.fixed_spec is not None:
                    path = simulate_fixed_spec
                else:
                    path = run_baseline_scenario
                result = path(scenario, self.plan_cache,
                              self.wafer_for(hardware),
                              hardware.resolve_simulator())
        elapsed = time.perf_counter() - start
        self._evaluate_hist.observe(elapsed)
        if tracing_enabled():
            # object.__setattr__: PlanResult is frozen, and telemetry is a
            # per-instance annotation, not part of the result value.
            object.__setattr__(result, "telemetry", {
                "evaluate_seconds": round(elapsed, 9),
                "stages": {name: round(seconds, 9) for name, seconds
                           in sorted(evaluate_span.stages.items())},
            })
        return result

    def solve(self, scenario: Scenario) -> SolverOutcome:
        """Run the dual-level solver on ``scenario`` and the cached chip of
        its hardware (flat outcome)."""
        hardware = scenario.hardware
        with span("service.solve", model=scenario.workload.model):
            return DualLevelWaferSolver(
                self.wafer_for(hardware), hardware.resolve_simulator(),
            ).solve(scenario)

    # The GPU comparator ------------------------------------------------------------

    def _evaluate_gpu(self, scenario: Scenario) -> PlanResult:
        """GPU comparator path: the fastest configuration that fits.

        Candidates and selection follow the wafer search: each candidate
        runs its checkpointed plan when only that fits in device memory,
        and only candidates that fit are simulated. The cluster reports no
        OOM configuration, so when none fits the step time is infinite.
        """
        model = scenario.workload.resolve()
        solver = scenario.solver
        scheme = solver.resolved_scheme()
        cluster = GPUClusterConfig()
        simulator = GPUClusterSimulator(
            cluster, scenario.hardware.resolve_simulator())
        capacity = cluster.device.memory_capacity
        specs = candidate_specs(
            scheme, cluster.num_devices, max_tp=scheme_max_tp(scheme, model),
            max_tatp=solver.max_tatp)
        _, report, oom = select_fastest(
            ((spec, plan_for(self.plan_cache, model, spec, cluster.num_devices,
                             capacity, allow_checkpointing=True))
             for spec in specs),
            capacity, simulator.simulate)
        return PlanResult.from_gpu(
            model_name=model.name,
            scheme=solver.scheme,
            engine=solver.engine,
            step_time=float("inf") if oom else report.step_time,
            throughput=0.0 if oom else report.throughput,
            candidates_evaluated=len(specs),
        )


def validate_result_payload(payload: Dict[str, object],
                            record: type = PlanResult) -> List[str]:
    """Schema-check one serialized result document.

    Used by ``repro plan --validate`` and the CI smoke step: verifies the
    payload carries exactly the fields of ``record`` (:class:`PlanResult`,
    or :class:`SolverOutcome` for a solve), a supported
    ``schema_version``, a known ``kind`` when it has one, and only finite
    (or null) numbers.

    Returns:
        A list of human-readable problems; empty when the payload is valid.
    """
    problems: List[str] = []
    expected = {result_field.name for result_field in fields(record)}
    missing = expected - set(payload)
    extra = set(payload) - expected
    if missing:
        problems.append(f"missing result keys: {', '.join(sorted(missing))}")
    if extra:
        problems.append(f"unexpected result keys: {', '.join(sorted(extra))}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"result schema_version {version!r} != {SCHEMA_VERSION}")
    kind = payload.get("kind")
    if "kind" in payload and kind not in RESULT_KINDS:
        problems.append(
            f"unknown result kind {kind!r}; expected one of "
            f"{', '.join(RESULT_KINDS)}")
    for key, value in payload.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"non-finite value for {key!r}")
    return problems
