"""Fig. 14: power breakdown and power efficiency.

The same (scheme x engine) grid — and the same :class:`repro.api.Scenario`
per cell — as Fig. 13, but reporting the power decomposition (computation /
memory / communication) and the throughput-per-watt relative to each
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.service import PlanService
from repro.core.metrics import geometric_mean
from repro.costmodel.tables import PlanCache
from repro.experiments.fig13_overall import (
    FAST_MODELS,
    SYSTEMS,
    scenario_for_system,
)
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS


@dataclass
class PowerCell:
    """One (model, system) cell of Fig. 14."""

    model: str
    system: str
    oom: bool
    compute_watts: float
    dram_watts: float
    comm_watts: float
    total_watts: float
    power_efficiency: float
    energy_per_step: float = 0.0

    def breakdown(self) -> Dict[str, float]:
        """Power breakdown normalised to the total."""
        if self.total_watts <= 0:
            return {"compute": 0.0, "memory": 0.0, "communication": 0.0}
        return {
            "compute": self.compute_watts / self.total_watts,
            "memory": self.dram_watts / self.total_watts,
            "communication": self.comm_watts / self.total_watts,
        }


@dataclass
class PowerComparison:
    """All cells of Fig. 14."""

    cells: List[PowerCell] = field(default_factory=list)

    def cell(self, model: str, system: str) -> PowerCell:
        """Look up one cell."""
        for candidate in self.cells:
            if candidate.model == model and candidate.system == system:
                return candidate
        raise KeyError(f"no cell for model={model} system={system}")

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

    def efficiency_gain_over(self, system: str) -> float:
        """Geometric-mean power-efficiency gain of TEMP over ``system``."""
        gains: List[float] = []
        for model in self.models():
            baseline = self.cell(model, system)
            temp = self.cell(model, "TEMP")
            if baseline.oom or temp.oom or baseline.power_efficiency <= 0:
                continue
            gains.append(temp.power_efficiency / baseline.power_efficiency)
        return geometric_mean(gains) if gains else 0.0

    def power_ratio_over(self, system: str) -> float:
        """Geometric-mean per-step energy ratio of TEMP relative to ``system``.

        The paper reports TEMP's "overall power consumption" at 88-99% of the
        baselines' alongside 1.2-1.9x throughput gains; those two statements
        are consistent when the quantity compared is the energy spent per
        training iteration, which is what this ratio uses.
        """
        ratios: List[float] = []
        for model in self.models():
            baseline = self.cell(model, system)
            temp = self.cell(model, "TEMP")
            if baseline.oom or temp.oom or baseline.energy_per_step <= 0:
                continue
            ratios.append(temp.energy_per_step / baseline.energy_per_step)
        return geometric_mean(ratios) if ratios else 0.0


def power_row(params: Mapping[str, object],
              payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 14 row's columns from a cell's plan payload."""
    return {
        "oom": payload["oom"],
        "compute_watts": payload["compute_watts"],
        "dram_watts": payload["dram_watts"],
        "comm_watts": payload["comm_watts"],
        "total_watts": payload["total_watts"],
        "power_efficiency": payload["power_efficiency"],
        "energy_per_step": payload["energy_per_step"],
    }


def run_power_comparison(
    models: Optional[Sequence[str]] = None,
    plan_cache: Optional[PlanCache] = None,
) -> PowerComparison:
    """Run the Fig. 14 grid (power breakdown + efficiency)."""
    model_names = list(models) if models is not None else list(TABLE_II_MODELS)
    service = PlanService(plan_cache=plan_cache)
    comparison = PowerComparison()
    for name in model_names:
        for system in SYSTEMS:
            params = {"model": name, "system": system}
            payload = service.evaluate(
                scenario_for_system(name, system)).to_dict()
            comparison.cells.append(
                PowerCell(**params, **power_row(params, payload)))
    return comparison


register(
    figure="fig14",
    paper="Fig. 14",
    title="Power breakdown and power efficiency (7 systems x Table II)",
    default_grid={"model": list(TABLE_II_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": list(FAST_MODELS), "system": list(SYSTEMS)},
    schema=("model", "system", "oom", "compute_watts", "dram_watts",
            "comm_watts", "total_watts", "power_efficiency",
            "energy_per_step"),
    entrypoints=("run_power_comparison",),
    description="The Fig. 13 grid re-read for power: the computation / "
                "memory / communication decomposition and the "
                "throughput-per-watt of every system.",
    scenario=scenario_for_system,
    row=power_row,
)
