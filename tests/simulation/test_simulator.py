"""Tests for the end-to-end wafer simulator and the GPU-cluster comparator."""

import pytest

from repro.hardware.config import GB, GPUClusterConfig, GPUDeviceConfig
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.comm import CollectiveType, CommTask
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model
from repro.simulation.gpu import GPUClusterSimulator
from repro.simulation.simulator import WaferSimulator


@pytest.fixture(scope="module")
def simulator(wafer):
    return WaferSimulator(wafer)


class TestWaferSimulator:
    def test_report_fields_are_consistent(self, simulator, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)
        report = simulator.simulate(plan)
        assert report.step_time > 0
        assert report.step_time == pytest.approx(
            report.compute_time + report.critical_comm_time
            + report.exposed_comm_time + report.bubble_time)
        assert report.throughput == pytest.approx(
            gpt3_6b.tokens_per_batch / report.step_time)
        assert 0 <= report.compute_utilization <= 1
        assert 0 <= report.bandwidth_utilization <= 1
        assert report.power.total > 0
        assert report.power_efficiency > 0

    def test_oom_detection(self, simulator, llama70b):
        replicated = analyze_model(llama70b, ParallelSpec(dp=32), num_devices=32)
        sharded = analyze_model(llama70b, ParallelSpec(tatp=32), num_devices=32)
        assert simulator.simulate(replicated).oom
        assert not simulator.simulate(sharded).oom

    def test_tp_collectives_sit_on_critical_path(self, simulator, gpt3_6b):
        tp_plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)
        tatp_plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)
        tp_report = simulator.simulate(tp_plan)
        tatp_report = simulator.simulate(tatp_plan)
        assert tp_report.critical_comm_time > tatp_report.critical_comm_time
        assert tatp_report.step_time < tp_report.step_time

    def test_tatp_stream_overlaps_with_compute(self, simulator, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(tatp=32), num_devices=32)
        report = simulator.simulate(plan)
        assert report.overlap_comm_time > 0
        assert report.exposed_comm_time < report.overlap_comm_time

    def test_pipeline_adds_bubble(self, simulator, gpt3_6b):
        flat = analyze_model(gpt3_6b, ParallelSpec(dp=32), num_devices=32)
        piped = analyze_model(gpt3_6b, ParallelSpec(dp=16, pp=2), num_devices=32)
        assert simulator.simulate(flat).bubble_time == 0.0
        assert simulator.simulate(piped).bubble_time > 0.0

    def test_engines_are_selectable(self, simulator, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(fsdp=4, tatp=8), num_devices=32)
        for engine in ("smap", "gmap", "tcme"):
            report = simulator.simulate(plan, engine=engine)
            assert report.engine == engine

    def test_tcme_not_slower_than_smap(self, simulator, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(fsdp=4, tatp=8), num_devices=32)
        smap = simulator.simulate(plan, engine="smap")
        tcme = simulator.simulate(plan, engine="tcme")
        assert tcme.step_time <= smap.step_time * 1.001

    def test_more_dies_reduce_step_time(self, gpt3_6b):
        from repro.hardware.config import default_wafer_config
        small = WaferSimulator(WaferScaleChip(default_wafer_config(2, 4)))
        large = WaferSimulator(WaferScaleChip(default_wafer_config(4, 8)))
        plan8 = analyze_model(gpt3_6b, ParallelSpec(dp=2, tatp=4), num_devices=8)
        plan32 = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)
        assert large.simulate(plan32).step_time < small.simulate(plan8).step_time

    def test_comm_time_by_dimension_populated(self, simulator, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)
        report = simulator.simulate(plan)
        assert "tp" in report.comm_time_by_dimension
        assert "dp" in report.comm_time_by_dimension

    def test_slower_link_bandwidth_increases_comm_time(self, gpt3_6b):
        from repro.hardware.config import default_wafer_config
        fast = WaferSimulator(WaferScaleChip(default_wafer_config()))
        slow = WaferSimulator(WaferScaleChip(
            default_wafer_config(d2d_bandwidth=default_wafer_config().d2d.bandwidth / 8)))
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)
        assert (slow.simulate(plan).critical_comm_time
                > fast.simulate(plan).critical_comm_time)


class TestGPUClusterSimulator:
    def test_report_consistency(self, gpt3_6b):
        simulator = GPUClusterSimulator()
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8, sp_within_tp=True),
                             num_devices=32)
        report = simulator.simulate(plan)
        assert report.step_time == pytest.approx(
            report.compute_time + report.comm_time)
        assert report.throughput > 0

    def test_gpu_cluster_detects_oom(self, llama70b):
        simulator = GPUClusterSimulator()
        plan = analyze_model(llama70b, ParallelSpec(dp=32), num_devices=32)
        assert simulator.simulate(plan).oom

    def test_cross_node_collectives_cost_more(self, gpt3_6b):
        simulator = GPUClusterSimulator()
        inside = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)
        across = analyze_model(gpt3_6b, ParallelSpec(dp=2, tp=16), num_devices=32)
        assert (simulator.simulate(across).comm_time
                > simulator.simulate(inside).comm_time)

    def test_group_spanning_nodes_uses_internode_link(self):
        # The same 8-rank all-reduce leaves NVLink once a node holds 4 GPUs.
        task = CommTask(CollectiveType.ALL_REDUCE, 8, 1 * GB)
        one_node = GPUClusterSimulator(GPUClusterConfig(num_nodes=4, gpus_per_node=8))
        two_nodes = GPUClusterSimulator(GPUClusterConfig(num_nodes=8, gpus_per_node=4))
        assert two_nodes._task_time(task) > one_node._task_time(task)

    def test_allreduce_scales_with_group(self):
        simulator = GPUClusterSimulator()
        small = simulator._task_time(CommTask(CollectiveType.ALL_REDUCE, 8, 1 * GB))
        large = simulator._task_time(CommTask(CollectiveType.ALL_REDUCE, 32, 1 * GB))
        assert small < large

    def test_trivial_collectives_are_free(self):
        simulator = GPUClusterSimulator()
        for kind in (CollectiveType.ALL_REDUCE, CollectiveType.ALL_GATHER):
            assert simulator._task_time(CommTask(kind, 1, 1 * GB)) == 0.0
            assert simulator._task_time(CommTask(kind, 8, 0.0)) == 0.0

    def test_oom_is_the_fit_test_against_device_memory(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)

        def oom_at(capacity):
            cluster = GPUClusterConfig(device=GPUDeviceConfig(memory_capacity=capacity))
            return GPUClusterSimulator(cluster).simulate(plan).oom

        assert not oom_at(plan.memory.total)
        assert oom_at(plan.memory.total - 1)
