"""Fig. 13: overall training-performance comparison.

Six baselines (three partitioning schemes x two mapping engines) plus TEMP are
evaluated on the Table II models. For each cell the runner reports the
normalised training latency with its computation / communication breakdown,
the peak per-die memory, and whether the configuration ran out of memory —
exactly the quantities the figure plots.

Every cell is described by a :class:`repro.api.Scenario`
(:func:`scenario_for_system`) and evaluated through
:class:`repro.api.PlanService`; Fig. 14 reads the power numbers off the same
scenarios this figure reads the latency off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService
from repro.core.metrics import geometric_mean
from repro.costmodel.tables import PlanCache
from repro.parallelism.baselines import BaselineScheme
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS

#: The six baseline (scheme, engine) pairs of the figure, in label order.
BASELINE_GRID = [
    (BaselineScheme.MEGATRON1, "smap", "Mega+SMap"),
    (BaselineScheme.MEGATRON1, "gmap", "Mega+GMap"),
    (BaselineScheme.MESP, "smap", "MeSP+SMap"),
    (BaselineScheme.MESP, "gmap", "MeSP+GMap"),
    (BaselineScheme.FSDP, "smap", "FSDP+SMap"),
    (BaselineScheme.FSDP, "gmap", "FSDP+GMap"),
]

#: System labels of the figure, baselines first, TEMP last.
SYSTEMS = [label for _, _, label in BASELINE_GRID] + ["TEMP"]

#: Label -> (scheme, engine) lookup for the six baselines.
_SYSTEM_TABLE = {label: (scheme, engine)
                 for scheme, engine, label in BASELINE_GRID}

#: Short model list used by fast test runs.
FAST_MODELS = ["gpt3-6.7b", "llama3-70b"]


def scenario_for_system(model: str, system: str) -> Scenario:
    """The :class:`Scenario` of one (model, system) cell of Fig. 13/14.

    ``system`` is one of :data:`SYSTEMS` ("Mega+SMap" ... "TEMP").
    """
    workload = WorkloadSpec(model=model)
    if system == "TEMP":
        return Scenario(workload=workload, solver=SolverSpec.for_framework())
    try:
        scheme, engine = _SYSTEM_TABLE[system]
    except KeyError:
        known = ", ".join(SYSTEMS)
        raise KeyError(
            f"unknown system {system!r}; expected one of {known}") from None
    return Scenario(workload=workload,
                    solver=SolverSpec(scheme=scheme.value, engine=engine))


@dataclass
class OverallCell:
    """One (model, system) cell of Fig. 13."""

    model: str
    system: str
    spec: str
    oom: bool
    step_time: float
    compute_time: float
    comm_time: float
    memory_gb: float
    throughput: float
    power_efficiency: float


@dataclass
class OverallComparison:
    """All cells of Fig. 13 plus the headline speedups of §VIII-B."""

    cells: List[OverallCell] = field(default_factory=list)

    def systems(self) -> List[str]:
        """System labels in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.system not in ordered:
                ordered.append(cell.system)
        return ordered

    def models(self) -> List[str]:
        """Model names in presentation order."""
        ordered: List[str] = []
        for cell in self.cells:
            if cell.model not in ordered:
                ordered.append(cell.model)
        return ordered

    def cell(self, model: str, system: str) -> OverallCell:
        """Look up one cell."""
        for candidate in self.cells:
            if candidate.model == model and candidate.system == system:
                return candidate
        raise KeyError(f"no cell for model={model} system={system}")

    def speedup_over(self, system: str) -> float:
        """Geometric-mean TEMP speedup over ``system`` across non-OOM models."""
        ratios: List[float] = []
        for model in self.models():
            baseline = self.cell(model, system)
            temp = self.cell(model, "TEMP")
            if baseline.oom or temp.oom:
                continue
            ratios.append(baseline.step_time / temp.step_time)
        return geometric_mean(ratios) if ratios else 0.0

    def average_speedups(self) -> Dict[str, float]:
        """TEMP speedup over every baseline system (§VIII-B headline numbers)."""
        return {
            system: self.speedup_over(system)
            for system in self.systems() if system != "TEMP"
        }

    def normalized_latency(self, model: str) -> Dict[str, float]:
        """Per-model latencies normalised to the slowest non-OOM system."""
        times = {
            system: self.cell(model, system).step_time
            for system in self.systems()
            if not self.cell(model, system).oom
        }
        if not times:
            return {}
        slowest = max(times.values())
        return {system: time / slowest for system, time in times.items()}

    def memory_ratio(self, model: str) -> Dict[str, float]:
        """Per-model peak memory of TEMP relative to each baseline."""
        temp_memory = self.cell(model, "TEMP").memory_gb
        ratios: Dict[str, float] = {}
        for system in self.systems():
            if system == "TEMP":
                continue
            baseline = self.cell(model, system)
            if baseline.memory_gb > 0:
                ratios[system] = temp_memory / baseline.memory_gb
        return ratios


def overall_row(params: Mapping[str, object],
                payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 13 row's columns from a cell's plan payload."""
    return {
        "spec": payload["spec"] if payload["spec"] else "-",
        "oom": payload["oom"],
        "step_time": payload["step_time"],
        "compute_time": payload["compute_time"],
        "comm_time": payload["comm_time"],
        "memory_gb": payload["memory_gb"],
        "throughput": payload["throughput"],
        "power_efficiency": payload["power_efficiency"],
    }


def run_overall_comparison(
    models: Optional[Sequence[str]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> OverallComparison:
    """Run the Fig. 13 grid.

    Args:
        models: model names to evaluate (defaults to all of Table II).
        plan_cache: optional shared ``analyze_model`` memoisation.

    Returns:
        The populated :class:`OverallComparison`.
    """
    model_names = list(models) if models is not None else list(TABLE_II_MODELS)
    service = PlanService(plan_cache=plan_cache)
    comparison = OverallComparison()
    for name in model_names:
        for system in SYSTEMS:
            params = {"model": name, "system": system}
            payload = service.evaluate(
                scenario_for_system(name, system)).to_dict()
            comparison.cells.append(
                OverallCell(**params, **overall_row(params, payload)))
    return comparison


def format_table(comparison: OverallComparison) -> str:
    """Human-readable table of the comparison (used by the bench printout)."""
    lines = ["model            system      spec                              "
             "OOM   step(s)  comm(s)  mem(GB)  tok/s"]
    for cell in comparison.cells:
        lines.append(
            f"{cell.model:<16} {cell.system:<11} {cell.spec:<33} "
            f"{'yes' if cell.oom else 'no ':<5} {cell.step_time:8.3f} "
            f"{cell.comm_time:8.3f} {cell.memory_gb:8.1f} {cell.throughput:10.0f}")
    speedups = comparison.average_speedups()
    lines.append("TEMP average speedups: " + ", ".join(
        f"{system}: {value:.2f}x" for system, value in speedups.items()))
    return "\n".join(lines)


register(
    figure="fig13",
    paper="Fig. 13",
    title="Overall training-performance comparison (7 systems x Table II)",
    default_grid={"model": list(TABLE_II_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": list(FAST_MODELS), "system": list(SYSTEMS)},
    schema=("model", "system", "spec", "oom", "step_time", "compute_time",
            "comm_time", "memory_gb", "throughput", "power_efficiency"),
    entrypoints=("run_overall_comparison",),
    description="Three partitioning schemes x two mapping engines plus TEMP "
                "on the Table II models: normalised training latency with "
                "its compute/communication breakdown, peak per-die memory, "
                "and OOM flags.",
    scenario=scenario_for_system,
    row=overall_row,
)
