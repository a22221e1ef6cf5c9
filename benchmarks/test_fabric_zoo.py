"""Benchmark regenerating the fabric-zoo study (which fabric wins per workload)."""


def test_fabric_zoo(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fabric_zoo",), rounds=1,
                              iterations=1)
    step = {(row["model"], row["fabric"]): row["step_time"] for row in rows}
    fabrics = sorted({row["fabric"] for row in rows})

    # Row-spanning tp=8 groups: torus wrap links close the rings, so torus
    # has the lowest step time on both tp=8 workloads (gpt3-6.7b 0.410 s,
    # llama2-7b 0.759 s; chiplet 0.414/0.762 s, mesh 0.684/1.213 s).
    for model in ("gpt3-6.7b", "llama2-7b"):
        for fabric in fabrics:
            if fabric != "torus":
                assert step[(model, "torus")] < step[(model, fabric)], (
                    model, fabric)
    # Deck- and chiplet-spanning tp=32 groups pay vertical hops and backbone
    # escapes: on llama3-70b mesh3d (16.66 s) and chiplet (15.20 s) are
    # slower than mesh (11.20 s).
    assert step[("llama3-70b", "mesh3d")] > step[("llama3-70b", "mesh")]
    assert step[("llama3-70b", "chiplet")] > step[("llama3-70b", "mesh")]
