"""Benchmark regenerating Fig. 16 (ablation: Base, +TATP, +TATP+TCME)."""

from statistics import geometric_mean


def test_fig16_ablation(benchmark, paper_rows):
    rows = benchmark.pedantic(paper_rows, args=("fig16",), rounds=1,
                              iterations=1)
    throughput = {(row["model"], row["step"]): row["throughput"]
                  for row in rows}
    models = sorted({row["model"] for row in rows})

    def average_gain(step, relative_to):
        """Geometric-mean throughput gain of ``step`` over ``relative_to``."""
        return geometric_mean([
            throughput[(model, step)] / throughput[(model, relative_to)]
            for model in models if throughput[(model, relative_to)] > 0])

    tatp_gain = average_gain("base+tatp", "base")
    tcme_gain = average_gain("base+tatp+tcme", "base+tatp")
    print(f"\naverage gain from TATP: {tatp_gain:.2f}x; "
          f"from TCME: {tcme_gain:.2f}x")

    # Every optimisation step helps (or at least never hurts) every model, and
    # the average gains are positive, with TATP contributing at least as much
    # as TCME (paper: 1.21x vs 1.14x).
    for model in models:
        base = throughput[(model, "base")]
        tatp = throughput[(model, "base+tatp")] / base
        tcme = throughput[(model, "base+tatp+tcme")] / base
        assert tatp >= 0.999
        assert tcme >= tatp * 0.999
    assert tatp_gain >= 1.0
    assert tcme_gain >= 1.0
    assert tatp_gain >= tcme_gain * 0.95
