"""The result records of the Scenario API.

:class:`PlanResult` is what :meth:`repro.api.service.PlanService.evaluate`
returns on every path: the record the paper reports for each system of
Figs. 13–20 — step time split into compute, communication and bubble, peak
memory, throughput and power — flat and JSON-serializable, with one schema
across all paths (fields a path does not produce hold zeros / ``None``).

Every wafer path (:mod:`repro.core.framework`, :mod:`repro.core.multiwafer`,
:mod:`repro.core.fault_tolerance`) builds its own record with
:meth:`PlanResult.from_report`; the GPU comparator uses
:meth:`PlanResult.from_gpu`. :class:`SolverOutcome` is what
:meth:`repro.api.service.PlanService.solve` returns, built by the
dual-level solver itself. This module depends on the scenario tree only,
so the core and solver modules import it without importing the service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.api.scenario import SCHEMA_VERSION, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallelism.spec import ParallelSpec
    from repro.simulation.simulator import SimulationReport

_GB = 1024 ** 3

#: Result kinds a :class:`PlanResult` can carry.
RESULT_KINDS = ("single_wafer", "fixed_spec", "multi_wafer", "fault",
                "gpu_cluster")


def serializable_fields(result) -> Dict[str, object]:
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
        return serializable_fields(self)

    # Builders --------------------------------------------------------------------

    @classmethod
    def from_report(
        cls,
        kind: str,
        scenario: Scenario,
        model_name: str,
        spec: Optional["ParallelSpec"],
        report: Optional["SimulationReport"],
        oom: bool,
        candidates_evaluated: int,
        relative_throughput: Optional[float] = None,
    ) -> "PlanResult":
        """The record of one wafer evaluation of ``scenario``.

        ``spec`` and ``report`` are the reported configuration and its
        simulation; ``report is None`` means the search had no candidate,
        and the step time is then infinite with every measurement 0.
        Scheme, engine and wafer count come from the scenario.
        """
        power = report.power if report else None
        step_time = report.step_time if report else float("inf")
        return cls(
            kind=kind,
            model=model_name,
            scheme=scenario.solver.scheme,
            engine=scenario.solver.engine,
            spec=spec.label() if spec else None,
            oom=oom,
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
            candidates_evaluated=candidates_evaluated,
            num_wafers=scenario.hardware.num_wafers,
            pp_degree=spec.pp if spec else 0,
            relative_throughput=relative_throughput,
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
        return serializable_fields(self)
