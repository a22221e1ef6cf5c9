"""The plan-service facade of the Scenario API.

:class:`PlanService` is the one front door to the framework's evaluation
paths: it owns the shared :class:`~repro.costmodel.tables.PlanCache`, caches
resolved wafers per hardware spec, and dispatches a
:class:`~repro.api.scenario.Scenario` to the single-wafer search, the
pinned-spec simulation, the multi-wafer (pipelined) search, the
fault-tolerance evaluation, or the GPU comparator cluster. It hands each
wafer search its plan cache, cached chip and simulator config, and every
search, the GPU comparator included, picks its answer with
:func:`~repro.solver.search_space.select_fastest`.

``evaluate`` returns a :class:`PlanResult` — a flat, JSON-serializable record
with one stable schema across all paths (fields a path does not produce hold
zeros / ``None``). ``evaluate_raw`` returns the underlying rich result object
(:class:`~repro.core.framework.BaselineResult`,
:class:`~repro.core.multiwafer.MultiWaferResult`, ...) for callers that need
simulation reports or :class:`~repro.parallelism.spec.ParallelSpec` objects.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.api.scenario import SCHEMA_VERSION, HardwareSpec, Scenario, ScenarioError
from repro.core.fault_tolerance import FaultToleranceResult, evaluate_with_faults
from repro.core.framework import (
    BaselineResult,
    run_baseline_scenario,
    scheme_max_tp,
    simulate_fixed_spec,
)
from repro.core.multiwafer import MultiWaferResult, run_multiwafer_scenario
from repro.costmodel.tables import PlanCache
from repro.hardware.config import GPUClusterConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span, tracing_enabled
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import candidate_specs
from repro.simulation.gpu import GPUClusterSimulator
from repro.solver.dlws import (
    DEFAULT_GENETIC_CONFIG,
    DualLevelWaferSolver,
    SolverResult,
)
from repro.solver.genetic import GeneticConfig
from repro.solver.search_space import plan_for, select_fastest

_GB = 1024 ** 3

#: Result kinds a :class:`PlanResult` can carry.
RESULT_KINDS = ("single_wafer", "fixed_spec", "multi_wafer", "fault",
                "gpu_cluster")


def _serializable_fields(result) -> Dict[str, object]:
    """A result dataclass as a plain dict; non-finite floats become ``None``.

    Single home of the strict-JSON serialisation rule shared by
    :meth:`PlanResult.to_dict` and :meth:`SolverOutcome.to_dict`.
    """
    payload: Dict[str, object] = {}
    for result_field in fields(result):
        value = getattr(result, result_field.name)
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        payload[result_field.name] = value
    return payload


@dataclass(frozen=True)
class PlanResult:
    """Flat, serializable outcome of ``PlanService.evaluate``.

    Times are seconds, memory is GiB, throughput is tokens/second, power is
    watts, energy is joules per training step. ``step_time`` may be
    ``inf`` when no configuration produced a report; :meth:`to_dict`
    serialises non-finite floats as ``None`` (strict JSON).
    """

    kind: str
    model: str
    scheme: str
    engine: str
    spec: Optional[str]
    oom: bool
    step_time: float
    compute_time: float
    comm_time: float
    bubble_time: float
    memory_gb: float
    throughput: float
    compute_utilization: float
    bandwidth_utilization: float
    compute_watts: float
    dram_watts: float
    comm_watts: float
    total_watts: float
    energy_per_step: float
    power_efficiency: float
    candidates_evaluated: int  # configurations considered, mapped or not
    num_wafers: int = 1
    pp_degree: int = 0
    relative_throughput: Optional[float] = None
    schema_version: int = SCHEMA_VERSION

    # Per-request stage timings, attached by PlanService.evaluate when
    # tracing is enabled. Deliberately an un-annotated class attribute —
    # NOT a dataclass field — so to_dict() payloads, the exact-field-set
    # schema check, and cross-path bit-identity are untouched.
    telemetry = None

    @property
    def label(self) -> str:
        """Readable system label like "mesp+gmap"."""
        return f"{self.scheme}+{self.engine}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dict (non-finite floats become ``None``)."""
        return _serializable_fields(self)

    # Builders --------------------------------------------------------------------

    @classmethod
    def from_baseline(cls, result: BaselineResult,
                      kind: str = "single_wafer") -> "PlanResult":
        """Wrap a single-wafer (or fixed-spec) search result."""
        report = result.report
        power = report.power if report else None
        step_time = report.step_time if report else float("inf")
        return cls(
            kind=kind,
            model=result.model.name,
            scheme=result.scheme.value,
            engine=result.engine,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=result.oom,
            step_time=step_time,
            compute_time=report.compute_time if report else 0.0,
            comm_time=report.total_comm_time if report else 0.0,
            bubble_time=report.bubble_time if report else 0.0,
            memory_gb=report.memory.total / _GB if report else 0.0,
            throughput=report.throughput if report else 0.0,
            compute_utilization=report.compute_utilization if report else 0.0,
            bandwidth_utilization=(
                report.bandwidth_utilization if report else 0.0),
            compute_watts=power.compute if power else 0.0,
            dram_watts=power.dram if power else 0.0,
            comm_watts=power.communication if power else 0.0,
            total_watts=power.total if power else 0.0,
            energy_per_step=(
                power.total * step_time
                if power and math.isfinite(step_time) else 0.0),
            power_efficiency=report.power_efficiency if report else 0.0,
            candidates_evaluated=result.candidates_evaluated,
            pp_degree=result.best_spec.pp if result.best_spec else 0,
        )

    @classmethod
    def from_multiwafer(cls, result: MultiWaferResult) -> "PlanResult":
        """Wrap a multi-wafer (pipelined) search result."""
        report = result.report
        power = report.power if report else None
        return cls(
            kind="multi_wafer",
            model=result.model.name,
            scheme=result.scheme.value,
            engine=result.engine,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=result.oom,
            step_time=result.step_time,
            compute_time=result.compute_time,
            comm_time=result.comm_time,
            bubble_time=result.bubble_time,
            memory_gb=report.memory.total / _GB if report else 0.0,
            throughput=result.throughput,
            compute_utilization=report.compute_utilization if report else 0.0,
            bandwidth_utilization=(
                report.bandwidth_utilization if report else 0.0),
            compute_watts=power.compute if power else 0.0,
            dram_watts=power.dram if power else 0.0,
            comm_watts=power.communication if power else 0.0,
            total_watts=power.total if power else 0.0,
            energy_per_step=(
                power.total * result.step_time if power else 0.0),
            power_efficiency=report.power_efficiency if report else 0.0,
            candidates_evaluated=1,
            num_wafers=result.num_wafers,
            pp_degree=result.best_spec.pp if result.best_spec else 0,
        )

    @classmethod
    def from_fault(cls, result: FaultToleranceResult, engine: str,
                   scheme: str) -> "PlanResult":
        """Wrap a fault-tolerance evaluation."""
        report = result.report
        power = report.power
        return cls(
            kind="fault",
            model=result.model.name,
            scheme=scheme,
            engine=engine,
            spec=result.spec.label(),
            oom=report.oom,
            step_time=report.step_time,
            compute_time=report.compute_time,
            comm_time=report.total_comm_time,
            bubble_time=report.bubble_time,
            memory_gb=report.memory.total / _GB,
            throughput=result.faulty_throughput,
            compute_utilization=report.compute_utilization,
            bandwidth_utilization=report.bandwidth_utilization,
            compute_watts=power.compute,
            dram_watts=power.dram,
            comm_watts=power.communication,
            total_watts=power.total,
            energy_per_step=power.total * report.step_time,
            power_efficiency=report.power_efficiency,
            candidates_evaluated=1,
            relative_throughput=result.relative_throughput,
        )

    @classmethod
    def from_gpu(cls, model_name: str, scheme: str, engine: str,
                 step_time: float, throughput: float,
                 candidates_evaluated: int) -> "PlanResult":
        """Wrap a GPU-cluster comparator evaluation."""
        return cls(
            kind="gpu_cluster",
            model=model_name,
            scheme=scheme,
            engine=engine,
            spec=None,
            oom=not math.isfinite(step_time),
            step_time=step_time,
            compute_time=0.0,
            comm_time=0.0,
            bubble_time=0.0,
            memory_gb=0.0,
            throughput=throughput,
            compute_utilization=0.0,
            bandwidth_utilization=0.0,
            compute_watts=0.0,
            dram_watts=0.0,
            comm_watts=0.0,
            total_watts=0.0,
            energy_per_step=0.0,
            power_efficiency=0.0,
            candidates_evaluated=candidates_evaluated,
        )


@dataclass(frozen=True)
class SolverOutcome:
    """Flat, serializable outcome of ``PlanService.solve``."""

    model: str
    spec: Optional[str]
    oom: bool
    step_time: float
    throughput: float
    candidates_considered: int
    finalists_simulated: int  # finalists considered, mapped or not
    dp_cost: float
    ga_cost: float
    evaluations: int
    search_seconds: float
    plan_cache_hits: int
    plan_cache_misses: int
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dict (non-finite floats become ``None``)."""
        return _serializable_fields(self)

    @classmethod
    def from_result(cls, result: SolverResult) -> "SolverOutcome":
        """Wrap a :class:`~repro.solver.dlws.SolverResult`."""
        report = result.best_report
        return cls(
            model=result.model.name,
            spec=result.best_spec.label() if result.best_spec else None,
            oom=report.oom if report else True,
            step_time=report.step_time if report else float("inf"),
            throughput=report.throughput if report else 0.0,
            candidates_considered=result.candidates_considered,
            finalists_simulated=result.finalists_simulated,
            dp_cost=result.dp_cost,
            ga_cost=result.ga_cost,
            evaluations=result.evaluations,
            search_seconds=result.search_seconds,
            plan_cache_hits=result.plan_cache_hits,
            plan_cache_misses=result.plan_cache_misses,
        )


#: Union of rich result types ``evaluate_raw`` can return.
RawResult = Union[BaselineResult, MultiWaferResult, FaultToleranceResult,
                  PlanResult]


class PlanService:
    """Facade dispatching scenarios to the framework's evaluation paths.

    One service instance owns one :class:`PlanCache`, so every scenario it
    evaluates shares memoised ``analyze_model`` results — the same sharing
    the sweep orchestrator gives each worker. The cache is pure memoisation:
    results are bit-identical with a private or a shared service.
    """

    def __init__(self, plan_cache: Optional[PlanCache] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._evaluations = self.registry.counter(
            "service.evaluations", help="PlanService.evaluate calls")
        self._evaluate_hist = self.registry.histogram(
            "service.evaluate_seconds",
            help="end-to-end PlanService.evaluate latency")
        self._wafers: Dict[Tuple, WaferScaleChip] = {}

    def stats(self) -> Dict[str, object]:
        """Plain-JSON service counters.

        ``plan_cache`` is :meth:`PlanCache.stats` (hit/miss/size),
        ``wafers_cached`` the number of distinct hardware geometries
        resolved. Surfaced by ``repro plan --stats`` and the plan server's
        ``GET /metrics``.
        """
        return {
            "plan_cache": self.plan_cache.stats(),
            "wafers_cached": len(self._wafers),
        }

    # Resolution caches ------------------------------------------------------------

    def wafer_for(self, hardware: HardwareSpec) -> WaferScaleChip:
        """A healthy wafer for ``hardware``, built once per geometry + fabric.

        The key holds every field :meth:`HardwareSpec.resolve_config` and
        the fabric read, so one chip serves the single-wafer, pinned-spec,
        solver and multi-wafer paths alike (a multi-wafer system's wafers
        are all this chip). Its topology memoises the routes it answers, so
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
            raw = self.evaluate_raw(scenario)
            if isinstance(raw, PlanResult):
                result = raw
            elif isinstance(raw, MultiWaferResult):
                result = PlanResult.from_multiwafer(raw)
            elif isinstance(raw, FaultToleranceResult):
                result = PlanResult.from_fault(
                    raw, engine=scenario.solver.engine,
                    scheme=scenario.solver.scheme)
            else:
                kind = ("fixed_spec"
                        if scenario.solver.fixed_spec is not None
                        else "single_wafer")
                result = PlanResult.from_baseline(raw, kind=kind)
        elapsed = time.perf_counter() - start
        self._evaluations.inc()
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

    def evaluate_raw(self, scenario: Scenario) -> RawResult:
        """Evaluate ``scenario`` and return the path's rich result object."""
        hardware = scenario.hardware
        if hardware.platform == "gpu_cluster":
            return self._evaluate_gpu(scenario)
        if hardware.has_fault_study:
            return self._evaluate_faults(scenario)
        if hardware.num_wafers > 1:
            search = run_multiwafer_scenario
        elif scenario.solver.fixed_spec is not None:
            search = simulate_fixed_spec
        else:
            search = run_baseline_scenario
        return search(scenario, self.plan_cache, self.wafer_for(hardware),
                      hardware.resolve_simulator())

    def solve(self, scenario: Scenario) -> SolverOutcome:
        """Run the dual-level solver on ``scenario`` (flat outcome)."""
        return SolverOutcome.from_result(self.solve_raw(scenario))

    def solve_raw(self, scenario: Scenario) -> SolverResult:
        """Run the dual-level solver and return the rich result."""
        if scenario.hardware.platform != "wafer":
            raise ScenarioError(
                "the dual-level solver only runs on the wafer platform")
        with span("service.solve", model=scenario.workload.model):
            return self._solve_raw(scenario)

    def _solve_raw(self, scenario: Scenario) -> SolverResult:
        solver_spec = scenario.solver
        genetic_config = (
            DEFAULT_GENETIC_CONFIG if solver_spec.ga_generations is None
            else GeneticConfig(generations=solver_spec.ga_generations))
        solver = DualLevelWaferSolver(
            wafer=self.wafer_for(scenario.hardware),
            config=scenario.hardware.resolve_simulator(),
            genetic_config=replace(genetic_config, seed=solver_spec.seed),
            num_finalists=solver_spec.num_finalists,
            mapping_engine=solver_spec.engine,
        )
        return solver.solve(
            scenario.workload.resolve(),
            scheme=solver_spec.resolved_scheme(),
            max_tatp=solver_spec.max_tatp,
            pipeline_degrees=solver_spec.pipeline_degrees,
            max_candidates=solver_spec.max_candidates,
        )

    # Dispatch targets -------------------------------------------------------------

    def _evaluate_faults(self, scenario: Scenario) -> FaultToleranceResult:
        """Fault-tolerance path: pinned spec on a healthy vs faulty wafer."""
        solver = scenario.solver
        if solver.fixed_spec is None:
            raise ScenarioError(
                "fault-tolerance scenarios need solver.fixed_spec (the "
                "configuration to stress) — the fault path does not search")
        fault_model = scenario.hardware.resolve_fault_model(seed=solver.seed)
        return evaluate_with_faults(
            scenario.workload.resolve(),
            solver.resolve_fixed_spec(),
            fault_model,
            config=scenario.hardware.resolve_simulator(),
            engine=solver.engine,
            wafer_config=scenario.hardware.resolve_config(),
        )

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


def validate_result_payload(payload: Dict[str, object]) -> List[str]:
    """Schema-check one serialized :class:`PlanResult` document.

    Used by ``repro plan --validate`` and the CI smoke step: verifies the
    payload carries exactly the PlanResult fields, a supported
    ``schema_version``, a known ``kind``, and only finite (or null) numbers.

    Returns:
        A list of human-readable problems; empty when the payload is valid.
    """
    problems: List[str] = []
    expected = {result_field.name for result_field in fields(PlanResult)}
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
