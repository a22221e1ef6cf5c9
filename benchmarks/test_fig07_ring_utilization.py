"""Benchmark regenerating Fig. 7(c) (physical vs logical ring utilization)."""


def test_fig07_ring_utilization(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig07",), rounds=1,
                              iterations=1)

    assert rows
    # A contiguous physical-ring mapping never does worse than the scattered
    # (logical-ring) mapping, and the gap never exceeds the paper's worst case.
    for row in rows:
        assert (row["physical_ring_utilization"]
                >= row["logical_ring_utilization"] - 1e-9)
        assert 0.0 <= row["utilization_drop"] <= 0.6
