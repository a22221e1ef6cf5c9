"""Benchmark regenerating Fig. 17 (mixed-parallelism sweep for Llama2 7B)."""

import pytest

from repro.runner.registry import get_experiment


@pytest.fixture(scope="module")
def rows(paper_rows):
    """The paper grid holds both sequence lengths: it runs once, untimed,
    for both checks."""
    return paper_rows("fig17")


@pytest.mark.parametrize("seq_length,batch_size", [(2048, 128), (16384, 32)])
def test_fig17_llama2_config_sweep(rows, seq_length, batch_size):
    # The registered cells of each sequence length train with the paper's
    # batch: 128 at 2k, 32 at 16k.
    experiment = get_experiment("fig17")
    assert {experiment.scenario_for(**cell).workload.batch_size
            for cell in experiment.cells()
            if cell["seq_length"] == seq_length} == {batch_size}
    feasible = [row for row in rows
                if row["seq_length"] == seq_length and not row["oom"]]

    def fastest(candidates):
        return max(candidates, key=lambda row: row["throughput"])

    best = fastest(feasible)
    best_tatp = fastest(row for row in feasible if row["tatp"] > 1)
    best_plain = fastest(row for row in feasible if row["tatp"] == 1)
    print(f"\nseq={seq_length}: best overall {best['config']}; best TATP "
          f"{best_tatp['config']}; best non-TATP {best_plain['config']}")

    # Paper: configurations using TATP dominate; the overall winner uses a
    # moderate (not extreme) TATP degree and beats the best TATP-free config.
    assert best_tatp["throughput"] >= best_plain["throughput"] * 0.98
    assert best["throughput"] > 0
    assert 1 <= best["tatp"] <= 32
