"""Paper-shape checks on the reduced grids: the rows ``repro run --reduced``
writes for each figure (fast; the paper-fidelity grids are checked under
``benchmarks/``)."""

import functools
from statistics import geometric_mean

import pytest

from repro.api.service import PlanService
from repro.experiments.fabric_zoo import FABRICS
from repro.experiments.fig09_sweet_spot import LinearLayerWorkload
from repro.runner.manifest import validate_manifest
from repro.runner.orchestrator import run_experiment
from repro.runner.registry import get_experiment


@functools.lru_cache(maxsize=None)
def _rows(figure):
    """The rows of ``figure``'s reduced grid, run once per session.

    The manifest must validate against the figure's registration first: a
    cell that raises is recorded as failed with no rows, so a check that
    reads only the remaining rows would pass without it.
    """
    manifest = run_experiment(figure, reduced=True)
    problems = validate_manifest(manifest, get_experiment(figure))
    assert not problems, problems
    return manifest["rows"]


class TestMotivation:
    def test_breakdown_rows(self):
        rows = [row for row in _rows("fig04") if row["part"] == "breakdown"]
        assert [row["model"] for row in rows] == ["gpt3-6.7b"]
        row = rows[0]
        assert 0 < row["collective_fraction"] < 1
        assert row["collective_fraction"] + row["other_fraction"] == \
            pytest.approx(1.0)

    def test_memory_overhead_exceeds_ideal(self):
        (row,) = [row for row in _rows("fig04")
                  if row["part"] == "memory" and row["model"] == "llama2-70b"]
        assert row["megatron_gb"] / row["ideal_gb"] > 1.0
        assert row["oom"]


class TestRingUtilization:
    def test_physical_ring_never_worse(self):
        rows = _rows("fig07")
        assert rows
        for row in rows:
            assert (row["physical_ring_utilization"]
                    >= row["logical_ring_utilization"] - 1e-9)
            assert row["utilization_drop"] >= -1e-9


class TestSweetSpot:
    def test_throughput_peaks_at_moderate_degree(self):
        throughputs = {row["degree"]: row["throughput"]
                       for row in _rows("fig09")}
        best = max(throughputs, key=throughputs.get)
        assert 4 <= best <= 16
        assert throughputs[best] > throughputs[64]
        assert throughputs[best] > throughputs[2]

    def test_memory_scales_inversely(self):
        memory = {row["degree"]: row["memory_bytes_per_die"]
                  for row in _rows("fig09")}
        assert memory[2] == pytest.approx(4 * memory[8])

    def test_workload_properties(self):
        workload = LinearLayerWorkload()
        assert workload.flops > 0
        assert workload.weight_bytes > 0


class TestOverallComparison:
    @pytest.fixture(scope="class")
    def cells(self):
        return {(row["model"], row["system"]): row for row in _rows("fig13")}

    def test_grid_is_complete(self, cells):
        assert len({system for _, system in cells}) == 7
        assert len({model for model, _ in cells}) == 2
        assert len(_rows("fig13")) == 14

    def test_temp_wins_on_average(self, cells):
        for system in {system for _, system in cells} - {"TEMP"}:
            speedups = [
                row["step_time"] / cells[(model, "TEMP")]["step_time"]
                for (model, name), row in cells.items()
                if name == system and not row["oom"]
                and row["step_time"] is not None]
            assert geometric_mean(speedups) >= 1.0, system

    def test_megatron_ooms_on_70b(self, cells):
        assert cells[("llama3-70b", "Mega+SMap")]["oom"]
        assert not cells[("llama3-70b", "TEMP")]["oom"]

    def test_normalized_latency_bounded(self, cells):
        times = {system: row["step_time"]
                 for (model, system), row in cells.items()
                 if model == "gpt3-6.7b" and not row["oom"]}
        slowest = max(times.values())
        normalized = [time / slowest for time in times.values()]
        assert max(normalized) == pytest.approx(1.0)
        assert all(0 < value <= 1.0 for value in normalized)

    def test_memory_ratio_below_parity(self, cells):
        temp = cells[("llama3-70b", "TEMP")]["memory_gb"]
        ratios = [temp / row["memory_gb"]
                  for (model, system), row in cells.items()
                  if model == "llama3-70b" and system != "TEMP"
                  and row["memory_gb"] > 0]
        assert all(ratio <= 1.1 for ratio in ratios)


class TestPowerAndAblation:
    def test_power_breakdown_normalised(self):
        cells = {(row["model"], row["system"]): row for row in _rows("fig14")}
        temp = cells[("gpt3-6.7b", "TEMP")]
        parts = temp["compute_watts"] + temp["dram_watts"] + temp["comm_watts"]
        assert parts / temp["total_watts"] == pytest.approx(1.0)
        gains = [cells[(model, "TEMP")]["power_efficiency"]
                 / row["power_efficiency"]
                 for (model, system), row in cells.items()
                 if system == "Mega+SMap" and not row["oom"]
                 and row["power_efficiency"] > 0]
        assert geometric_mean(gains) >= 1.0

    def test_ablation_gains_are_monotone(self):
        throughput = {row["step"]: row["throughput"] for row in _rows("fig16")
                      if row["model"] == "llama3-70b"}
        normalized = {step: value / throughput["base"]
                      for step, value in throughput.items()}
        assert normalized["base"] == pytest.approx(1.0)
        assert normalized["base+tatp"] >= 0.999
        assert normalized["base+tatp+tcme"] >= normalized["base+tatp"] * 0.999


class TestConfigSweep:
    def test_sweep_contains_pure_and_hybrid_configs(self):
        rows = _rows("fig17")
        labels = {row["config"] for row in rows}
        assert "(32,1,1,1)" in labels
        assert "(1,1,1,32)" in labels
        assert max(row["throughput"] for row in rows if not row["oom"]) > 0

    def test_best_with_tatp_beats_best_without(self):
        feasible = [row for row in _rows("fig17") if not row["oom"]]
        best_tatp = max(row["throughput"] for row in feasible
                        if row["tatp"] > 1)
        best_plain = max(row["throughput"] for row in feasible
                         if row["tatp"] == 1)
        assert best_tatp >= best_plain * 0.95


class TestFaultToleranceRunner:
    def test_link_cliff_and_core_gracefulness(self):
        rows = _rows("fig20")
        link = [row["relative_throughput"] for row in rows
                if row["sweep"] == "link"]
        core = [row["relative_throughput"] for row in rows
                if row["sweep"] == "core"]
        assert link[0] == pytest.approx(1.0)
        assert link[-1] < 0.5
        assert core[-1] > 0.6


class TestSearchTime:
    def test_dls_faster_than_exhaustive(self):
        (row,) = _rows("search_time")
        assert row["dls_seconds"] > 0
        assert row["exhaustive_total_space"] > row["dls_evaluations"]
        assert row["projected_speedup"] > 10


class TestGPUComparisonRunner:
    def test_wafer_temp_beats_both(self):
        rows = _rows("fig15")
        assert {row["model"] for row in rows} == {"gpt3-6.7b"}
        cells = {row["system"]: row for row in rows}
        temp = cells["Wafer+TEMP"]
        # Paper: Wafer+TEMP achieves the lowest latency of the three systems.
        assert temp["step_time"] <= cells["GPU+MeSP"]["step_time"] * 1.001
        assert temp["step_time"] <= cells["Wafer+MeSP"]["step_time"] * 1.001
        assert cells["GPU+MeSP"]["step_time"] / temp["step_time"] >= 1.0
        assert temp["throughput"] > 0


class TestConvergenceRunner:
    def test_optimal_tatp_in_moderate_band(self):
        rows = _rows("fig18")
        assert [(row["model"], row["seq_length"]) for row in rows] == [
            ("gpt3-6.7b", 2048)]
        row = rows[0]
        # Paper: the winning TATP degree converges to a moderate band and the
        # best configuration never loses to the best TATP-free one.
        assert 1 <= row["best_tatp"] <= 32
        assert row["gain_over_best_non_tatp"] >= 0.999
        # The reported degree is the winning configuration's (DP,TP,SP,TATP).
        assert row["best_config"].endswith(f",{row['best_tatp']})")

    def test_summary_is_the_fig17_sweep(self):
        # Fig. 18's cell summarises the Fig. 17 sweep of its (model,
        # sequence length): run on Fig. 17's own reduced sweep, it names
        # the fastest feasible row that ``repro run fig17`` writes.
        (row,) = get_experiment("fig18").cell(
            PlanService(), model="llama2-7b", seq_length=2048)
        configs = _rows("fig17")
        feasible = [config for config in configs if not config["oom"]]
        best = max(feasible, key=lambda config: config["throughput"])
        assert (row["best_config"], row["best_throughput"]) == (
            best["config"], best["throughput"])
        assert (row["num_configs"], row["num_feasible"]) == (
            len(configs), len(feasible))


class TestMultiWaferRunner:
    @pytest.fixture(scope="class")
    def cells(self):
        return {row["system"]: row for row in _rows("fig19")}

    def test_grid_is_complete(self, cells):
        assert {row["model"] for row in _rows("fig19")} == {"gpt3-175b"}
        assert len(cells) == 7
        assert len(_rows("fig19")) == 7

    def test_temp_wins_without_oom(self, cells):
        temp = cells["TEMP"]
        assert not temp["oom"]
        for system, row in cells.items():
            if system == "TEMP":
                continue
            assert not row["oom"], system
            assert row["step_time"] / temp["step_time"] >= 0.999, system

    def test_pipeline_spans_wafers(self, cells):
        for row in cells.values():
            assert row["num_wafers"] == 2
            if not row["oom"]:
                assert row["pp_degree"] >= row["num_wafers"]


class TestCostModelRunner:
    def test_dnn_beats_regression_at_reduced_size(self):
        rows = _rows("fig21")
        dnn = {row["category"]: row for row in rows
               if row["predictor"] == "dnn"}
        regression = {row["category"]: row for row in rows
                      if row["predictor"] == "regression"}
        assert set(dnn) == set(regression)
        assert (max(row["relative_error"] for row in dnn.values())
                < max(row["relative_error"] for row in regression.values()))
        assert min(row["correlation"] for row in dnn.values()) > 0.5
        assert all(row["test_samples"] > row["train_samples"]
                   for row in rows)


class TestFabricZoo:
    @pytest.fixture(scope="class")
    def cells(self):
        return {row["fabric"]: row for row in _rows("fabric_zoo")}

    def test_every_fabric_runs_the_pinned_spec(self, cells):
        assert list(cells) == list(FABRICS)
        # The fabric only moves the collectives: the pinned tp=8 plan has
        # the same compute time and footprint on every fabric.
        mesh = cells["mesh"]
        for fabric, row in cells.items():
            assert row["spec"] == "(dp=4,tp=8,sp=1,tatp=1)", fabric
            assert not row["oom"], fabric
            assert row["compute_time"] == pytest.approx(
                mesh["compute_time"]), fabric
            assert row["memory_gb"] == pytest.approx(mesh["memory_gb"]), \
                fabric

    def test_torus_is_fastest_on_row_spanning_groups(self, cells):
        # Torus wrap links close the row-spanning tp=8 rings.
        torus = cells["torus"]["step_time"]
        for fabric, row in cells.items():
            if fabric != "torus":
                assert torus < row["step_time"], fabric
