"""Fig. 18: convergence of the optimal TATP dimension.

The Fig. 17 sweep applied to the GPT-3 models for short (2k) and long (16k)
sequences: the paper's claim is that regardless of model size and sequence
length, the winning configuration's TATP degree converges to 8 or 16, while
the DP/TP/SP mix shifts.
"""

from __future__ import annotations

from repro.experiments.fig17_parallel_configs import (
    config_cells,
    config_row,
    scenario_for_config,
    scenario_for_sweep,
)
from repro.runner.registry import register

#: Models and sequence lengths of Fig. 18.
CONVERGENCE_MODELS = ("gpt3-6.7b", "gpt3-76b", "gpt3-175b")
CONVERGENCE_SEQ_LENGTHS = (2048, 16384)


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
    description="The Fig. 17 sweep applied to the GPT-3 models: one summary "
                "row per (model, sequence length) reporting the winning "
                "configuration and its TATP degree.",
    scenario=scenario_for_sweep,
)
def convergence_cell(service, model, seq_length):
    """One (model, sequence length) summary row of Fig. 18.

    Raises:
        ValueError: when every configuration of the sweep goes OOM.
    """
    configs = []
    for cell in config_cells(model, seq_length):
        payload = service.evaluate(scenario_for_config(**cell)).to_dict()
        configs.append({**cell, **config_row(cell, payload)})
    feasible = [config for config in configs if not config["oom"]]
    if not feasible:
        raise ValueError(f"every configuration of {model} went OOM")
    best = max(feasible, key=lambda config: config["throughput"])
    plain = [config["throughput"] for config in feasible
             if config["tatp"] == 1]
    return [{
        "best_config": best["config"],
        "best_tatp": best["tatp"],
        "best_throughput": best["throughput"],
        "gain_over_best_non_tatp": (best["throughput"] / max(plain)
                                    if plain and max(plain) > 0 else None),
        "num_configs": len(configs),
        "num_feasible": len(feasible),
    }]
