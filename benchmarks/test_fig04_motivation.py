"""Benchmark regenerating Fig. 4 (motivation: time breakdown and memory overhead)."""


def test_fig04_motivation(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig04",), rounds=1,
                              iterations=1)
    breakdown = [row for row in rows if row["part"] == "breakdown"]
    memory = [row for row in rows if row["part"] == "memory"]

    # Collective communication is a substantial share of Megatron training time.
    assert all(row["collective_fraction"] > 0.05 for row in breakdown)
    # D2D bandwidth stays well below saturation (paper: < 55%).
    assert all(row["bandwidth_utilization"] < 0.55 for row in breakdown)
    # Replication-heavy Megatron exceeds the ideal footprint on every model and
    # overflows the per-die capacity for the 70B+ ones.
    assert all(row["ideal_gb"] > 0 and row["megatron_gb"] / row["ideal_gb"] > 1.0
               for row in memory)
    assert any(row["oom"] for row in memory)
