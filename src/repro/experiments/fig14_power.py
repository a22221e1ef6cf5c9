"""Fig. 14: power breakdown and power efficiency.

The same (scheme x engine) grid — and the same :class:`repro.api.Scenario`
per cell — as Fig. 13, but reporting the power decomposition (computation /
memory / communication) and the throughput-per-watt relative to each
baseline.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.experiments.fig13_overall import (
    FAST_MODELS,
    SYSTEMS,
    scenario_for_system,
)
from repro.runner.registry import register
from repro.workloads.models import TABLE_II_MODELS


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


register(
    figure="fig14",
    paper="Fig. 14",
    title="Power breakdown and power efficiency (7 systems x Table II)",
    default_grid={"model": list(TABLE_II_MODELS), "system": list(SYSTEMS)},
    reduced_grid={"model": list(FAST_MODELS), "system": list(SYSTEMS)},
    schema=("model", "system", "oom", "compute_watts", "dram_watts",
            "comm_watts", "total_watts", "power_efficiency",
            "energy_per_step"),
    description="The Fig. 13 grid re-read for power: the computation / "
                "memory / communication decomposition and the "
                "throughput-per-watt of every system.",
    scenario=scenario_for_system,
    row=power_row,
)
