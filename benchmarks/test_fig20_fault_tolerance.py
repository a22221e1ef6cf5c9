"""Benchmark regenerating Fig. 20 (fault tolerance sweeps)."""


def test_fig20_fault_tolerance(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig20",), rounds=1,
                              iterations=1)
    # Rows come in grid order: ascending fault rates within each sweep.
    link = [row for row in rows if row["sweep"] == "link"]
    core = [row["relative_throughput"] for row in rows
            if row["sweep"] == "core"]

    # Paper: link faults hit a throughput cliff (around a 35% fault rate),
    # while core faults degrade gracefully (~80% throughput at a 25% rate).
    cliff = next((row["rate"] for row in link
                  if row["relative_throughput"] < 0.5), None)
    assert cliff is not None and 0.2 <= cliff <= 0.6
    assert link[0]["relative_throughput"] > 0.99
    assert core[-1] > 0.6
    # Core-fault degradation is monotone and never cliff-like.
    assert all(later <= earlier + 1e-6
               for earlier, later in zip(core, core[1:]))
