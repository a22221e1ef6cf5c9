"""Benchmark regenerating Fig. 13 (and the §VIII-B headline speedups).

Asserts the reproduced shape on the rows of every Table II model and every
system (six baselines + TEMP): TEMP is the fastest non-OOM system for every
model, Megatron-1 runs out of memory on the 70B-class and larger models, and
TEMP's average speedup over every baseline exceeds 1x.
"""

from statistics import geometric_mean


def test_fig13_overall_comparison(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig13",), rounds=1,
                              iterations=1)
    temp = {row["model"]: row for row in rows if row["system"] == "TEMP"}
    # Baseline rows that fit and ran; OOM ones are compared to nothing.
    baselines = [row for row in rows if row["system"] != "TEMP"
                 and not row["oom"] and row["step_time"] is not None]

    # TEMP never OOMs and is the fastest feasible system for every model.
    for model, row in temp.items():
        assert not row["oom"], f"TEMP went OOM on {model}"
    for row in baselines:
        assert temp[row["model"]]["step_time"] <= row["step_time"] * 1.001, (
            f"TEMP slower than {row['system']} on {row['model']}")

    # Megatron-1 cannot hold the 70B-class and larger models (Fig. 13's OOMs).
    oom = {(row["model"], row["system"]) for row in rows if row["oom"]}
    for model in ("llama3-70b", "gpt3-76b", "gpt3-175b", "opt-175b"):
        assert (model, "Mega+SMap") in oom

    # Average speedups over every baseline are > 1x (paper: 1.20x-1.69x).
    speedups = {
        system: geometric_mean([
            row["step_time"] / temp[row["model"]]["step_time"]
            for row in baselines if row["system"] == system])
        for system in sorted({row["system"] for row in rows} - {"TEMP"})}
    print("\nTEMP average speedups:",
          {system: round(value, 2) for system, value in speedups.items()})
    assert all(value > 1.0 for value in speedups.values()), speedups

    # TEMP's peak memory never exceeds the best baseline by more than 10%
    # (the paper reports 49%-82% of the baselines' usage on average).
    for model, row in temp.items():
        feasible = [row["memory_gb"] / baseline["memory_gb"]
                    for baseline in baselines
                    if baseline["model"] == model and baseline["memory_gb"] > 0]
        if feasible:
            assert min(feasible) <= 1.1
