"""Explore mixed-parallelism configurations for long-sequence training.

Run with ``python examples/long_sequence_sweep.py``. The script reproduces the
Fig. 17(b) scenario: Llama2-7B with 16k-token sequences on a 32-die wafer,
sweeping every (DP, TP, SP, TATP) combination under the traffic-conscious
mapping engine and printing the ten best configurations.
"""

from repro.api.service import PlanService
from repro.experiments.fig17_parallel_configs import (
    config_cells,
    scenario_for_config,
)


def main() -> None:
    service = PlanService()
    # One pinned Scenario per configuration; a 16k sweep trains with batch
    # 32 (the long-sequence default of the Fig. 17 scenarios).
    sweep = [(cell["config"], cell["tatp"],
              service.evaluate(scenario_for_config(**cell)))
             for cell in config_cells("llama2-7b", 16384)]
    feasible = [entry for entry in sweep if not entry[2].oom]
    best = max(feasible, key=lambda entry: entry[2].throughput)
    reference = max((entry for entry in feasible if entry[1] == 1),
                    key=lambda entry: entry[2].throughput)
    reference_throughput = reference[2].throughput

    print("Llama2-7B, sequence length 16k, batch 32 — top configurations")
    print(f"{'(DP,TP,SP,TATP)':<16} {'norm. throughput':>16} {'memory (GB)':>12} "
          f"{'OOM':>4}")
    ranked = sorted(sweep, key=lambda entry: -entry[2].throughput)[:10]
    for label, _, result in ranked:
        print(f"{label:<16} {result.throughput / reference_throughput:16.2f} "
              f"{result.memory_gb:12.1f} {'yes' if result.oom else 'no':>4}")

    print(f"\nBest configuration: {best[0]} "
          f"({best[2].throughput / reference_throughput:.2f}x the best "
          f"TATP-free configuration {reference[0]})")


if __name__ == "__main__":
    main()
