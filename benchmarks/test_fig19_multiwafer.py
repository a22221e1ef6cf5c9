"""Benchmark regenerating Fig. 19 (multi-wafer scalability)."""


def test_fig19_multiwafer_scaling(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig19",), rounds=1,
                              iterations=1)
    temp = {row["model"]: row for row in rows if row["system"] == "TEMP"}
    baselines = [row for row in rows if row["system"] != "TEMP"]

    # Paper: TEMP achieves the highest throughput on every multi-wafer model
    # (1.2x-1.6x over the baselines) by keeping the pipeline degree low.
    assert not any(row["oom"] for row in temp.values())
    for row in baselines:
        if row["oom"] or row["step_time"] is None:
            continue
        assert (temp[row["model"]]["throughput"]
                >= row["throughput"] * 0.999), (row["model"], row["system"])
    # TEMP's pipeline degree never exceeds the baselines' largest choice.
    for model, row in temp.items():
        assert row["pp_degree"] <= max(
            baseline["pp_degree"] for baseline in baselines
            if baseline["model"] == model)
