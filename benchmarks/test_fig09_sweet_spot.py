"""Benchmark regenerating Fig. 9 (TATP degree sweet spot)."""


def test_fig09_sweet_spot(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig09",), rounds=1,
                              iterations=1)
    best = max(rows, key=lambda row: row["throughput"])["degree"]
    best_power = max(rows, key=lambda row: row["power_efficiency"])["degree"]
    print(f"\noptimal throughput degree: {best}; "
          f"optimal power-efficiency degree: {best_power}")

    # Paper: the throughput sweet spot sits at N ~ 8-16 and throughput declines
    # on both sides of it; power efficiency peaks at or below the same point.
    assert 4 <= best <= 16
    throughput = {row["degree"]: row["throughput"] for row in rows}
    assert throughput[best] > throughput[2]
    assert throughput[best] > throughput[64]
    assert best_power <= best
    # Memory per die scales as O(1/N).
    memory = {row["degree"]: row["memory_bytes_per_die"] for row in rows}
    assert memory[2] / memory[64] == 32
