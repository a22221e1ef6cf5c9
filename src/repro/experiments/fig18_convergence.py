"""Fig. 18: convergence of the optimal TATP dimension.

Thin wrapper around the Fig. 17 sweep machinery applied to the GPT-3 models
for short (2k) and long (16k) sequences: the paper's claim is that regardless
of model size and sequence length, the winning configuration's TATP degree
converges to 8 or 16, while the DP/TP/SP mix shifts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.api.service import PlanService
from repro.experiments.fig17_parallel_configs import (
    ConfigSweep,
    run_config_sweep,
    scenario_for_sweep,
)
from repro.runner.registry import register

#: Models and sequence lengths of Fig. 18.
CONVERGENCE_MODELS = ("gpt3-6.7b", "gpt3-76b", "gpt3-175b")
CONVERGENCE_SEQ_LENGTHS = (2048, 16384)


def run_convergence(
    model_names: Sequence[str] = CONVERGENCE_MODELS,
    seq_lengths: Sequence[int] = CONVERGENCE_SEQ_LENGTHS,
    service: Optional[PlanService] = None,
) -> Dict[Tuple[str, int], ConfigSweep]:
    """Run the Fig. 18 sweeps and return one ConfigSweep per (model, seq)."""
    service = service or PlanService()
    results: Dict[Tuple[str, int], ConfigSweep] = {}
    for name in model_names:
        for seq in seq_lengths:
            results[(name, seq)] = run_config_sweep(
                model_name=name, seq_length=seq, service=service)
    return results


def optimal_tatp_degrees(
    results: Dict[Tuple[str, int], ConfigSweep]
) -> Dict[Tuple[str, int], int]:
    """TATP degree of the winning configuration of each sweep."""
    return {
        key: sweep.best().tatp for key, sweep in results.items()
    }


@register(
    figure="fig18",
    paper="Fig. 18",
    title="Convergence of the optimal TATP degree across GPT-3 models",
    default_grid={"model": list(CONVERGENCE_MODELS),
                  "seq_length": list(CONVERGENCE_SEQ_LENGTHS)},
    reduced_grid={"model": ["gpt3-6.7b"], "seq_length": [2048]},
    schema=("model", "seq_length", "best_config", "best_tatp",
            "best_throughput", "gain_over_best_non_tatp", "num_configs",
            "num_feasible"),
    entrypoints=("run_convergence", "optimal_tatp_degrees"),
    description="The Fig. 17 sweep applied to the GPT-3 models: one summary "
                "row per (model, sequence length) reporting the winning "
                "configuration and its TATP degree.",
    scenario=scenario_for_sweep,
)
def convergence_cell(service, model, seq_length):
    """One (model, sequence length) summary row of Fig. 18."""
    sweep = run_config_sweep(model_name=model, seq_length=seq_length,
                             service=service)
    best = sweep.best()
    feasible = [item for item in sweep.configs if not item.oom]
    try:
        gain = best.throughput / sweep.best_without_tatp().throughput
    except (ValueError, ZeroDivisionError):
        gain = None
    return [{
        "best_config": best.label,
        "best_tatp": best.tatp,
        "best_throughput": best.throughput,
        "gain_over_best_non_tatp": gain,
        "num_configs": len(sweep.configs),
        "num_feasible": len(feasible),
    }]
