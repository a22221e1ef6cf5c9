"""Benchmark for §VIII-H (dual-level search vs exhaustive/ILP search time)."""


def test_search_time_comparison(benchmark, paper_rows):
    (row,) = benchmark.pedantic(paper_rows, args=("search_time",),
                                rounds=1, iterations=1)
    print(f"\nDLS {row['dls_seconds']:.2f}s vs exhaustive "
          f"{row['exhaustive_seconds']:.2f}s over "
          f"{row['exhaustive_evaluations']} of "
          f"{row['exhaustive_total_space']:.2e} combinations: projected "
          f"speedup {row['projected_speedup']:.1e}x")

    # Paper: the dual-level search is > 200x faster than the ILP baseline.
    assert row["dls_seconds"] < 300
    assert row["projected_speedup"] > 200
    assert row["exhaustive_total_space"] > row["dls_evaluations"]
