"""Tests for the compute / communication / memory / power models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.config import ComputeDieConfig, LinkConfig, MB, default_wafer_config
from repro.parallelism.comm import CollectiveType, CommTask
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model
from repro.simulation.communication import (
    bottleneck_time,
    collective_steps,
    effective_bandwidth,
    task_time,
)
from repro.simulation.compute import compute_time, compute_utilization, kernel_launches
from repro.simulation.config import SimulatorConfig
from repro.simulation.memory import (
    dram_traffic_bytes,
    fits_in_memory,
    memory_pressure,
)
from repro.simulation.power import PowerBreakdown, power_breakdown, power_efficiency
from repro.workloads.training import MemoryFootprint


class TestSimulatorConfig:
    def test_defaults_valid(self):
        config = SimulatorConfig()
        assert 0 < config.base_mfu <= 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(base_mfu=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(overlap_efficiency=1.5)
        with pytest.raises(ValueError):
            SimulatorConfig(kernel_overhead=-1)


class TestComputeModel:
    def test_time_scales_inversely_with_peak(self):
        die = ComputeDieConfig()
        config = SimulatorConfig(kernel_overhead=0.0)
        base = compute_time(1e15, die, config)
        derated = compute_time(1e15, die, config, peak_flops_override=die.peak_flops / 2)
        assert derated == pytest.approx(2 * base)

    def test_kernel_overhead_adds_per_launch(self):
        die = ComputeDieConfig()
        config = SimulatorConfig(kernel_overhead=1e-6, operators_per_layer=10)
        with_overhead = compute_time(0.0, die, config, num_layers=2, tatp_rounds=4)
        assert with_overhead == pytest.approx(2 * 10 * 4 * 1e-6)

    def test_kernel_launches(self):
        assert kernel_launches(2, 10, 0) == 20
        assert kernel_launches(2, 10, 4) == 80

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            compute_time(-1, ComputeDieConfig(), SimulatorConfig())

    def test_utilization_bounded(self):
        die = ComputeDieConfig()
        assert compute_utilization(1e30, 1.0, die, 1) == 1.0
        assert compute_utilization(1e12, 0.0, die, 1) == 0.0

    @given(st.floats(1e9, 1e16))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_flops(self, flops):
        die = ComputeDieConfig()
        config = SimulatorConfig()
        assert compute_time(flops * 2, die, config) > compute_time(flops, die, config)


class TestCommunicationModel:
    def test_collective_steps(self):
        assert collective_steps(CollectiveType.ALL_REDUCE, 8) == 14
        assert collective_steps(CollectiveType.ALL_GATHER, 8) == 7
        assert collective_steps(CollectiveType.P2P, 2) == 1
        assert collective_steps(CollectiveType.ALL_REDUCE, 1) == 0

    def test_effective_bandwidth_ramps_with_chunk_size(self):
        link = LinkConfig()
        config = SimulatorConfig(link_ramp_bytes=32 * MB)
        small = effective_bandwidth(link, 1 * MB, config)
        large = effective_bandwidth(link, 1024 * MB, config)
        assert small < large <= link.bandwidth
        assert large == pytest.approx(link.bandwidth * 1024 / (1024 + 32))

    def test_task_time_grows_with_hops_and_contention(self):
        link = LinkConfig()
        config = SimulatorConfig()
        task = CommTask(CollectiveType.ALL_REDUCE, 8, 1e9)
        base = task_time(task, link, config)
        hops = task_time(task, link, config, hop_factor=4)
        contended = task_time(task, link, config, contention_factor=3.0)
        assert hops > base
        assert contended > base

    def test_trivial_task_is_free(self):
        task = CommTask(CollectiveType.ALL_REDUCE, 1, 1e9)
        assert task_time(task, LinkConfig(), SimulatorConfig()) == 0.0

    def test_invalid_factors_rejected(self):
        task = CommTask(CollectiveType.P2P, 2, 1e6)
        with pytest.raises(ValueError):
            task_time(task, LinkConfig(), SimulatorConfig(), hop_factor=0)
        with pytest.raises(ValueError):
            task_time(task, LinkConfig(), SimulatorConfig(), contention_factor=0.5)

    def test_bottleneck_time(self):
        assert bottleneck_time(0, LinkConfig(), SimulatorConfig()) == 0.0
        assert bottleneck_time(1e12, LinkConfig(), SimulatorConfig()) > 0.9


class TestMemoryModel:
    def test_fits_in_memory(self):
        die = ComputeDieConfig()
        small = MemoryFootprint(1e9, 1e9, 1e9, 1e9)
        huge = MemoryFootprint(1e12, 0, 0, 0)
        assert fits_in_memory(small, die.hbm.capacity)
        assert not fits_in_memory(huge, die.hbm.capacity)

    def test_memory_pressure_ratio(self):
        die = ComputeDieConfig()
        footprint = MemoryFootprint(die.hbm.capacity / 2, 0, 0, 0)
        assert memory_pressure(footprint, die.hbm.capacity) == pytest.approx(0.5)

    def test_memory_pressure_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            memory_pressure(MemoryFootprint(0, 0, 0, 0), 0.0)

    def test_dram_traffic_positive_and_scales_with_model(self, gpt3_6b, llama70b):
        small = dram_traffic_bytes(analyze_model(gpt3_6b, ParallelSpec(tatp=32),
                                                 num_devices=32))
        large = dram_traffic_bytes(analyze_model(llama70b, ParallelSpec(tatp=32),
                                                 num_devices=32))
        assert 0 < small < large


class TestPowerModel:
    def test_breakdown_sums(self):
        breakdown = PowerBreakdown(compute=100, dram=50, communication=25)
        assert breakdown.total == 175
        assert breakdown.share("compute") == pytest.approx(100 / 175)

    def test_power_breakdown_from_counts(self):
        wafer = default_wafer_config()
        breakdown = power_breakdown(
            total_flops=2e15, dram_bytes=1e12, comm_link_bytes=1e12,
            step_time=1.0, wafer=wafer)
        assert breakdown.compute == pytest.approx(2e15 / 2e12)
        assert breakdown.dram > breakdown.communication

    def test_invalid_inputs_rejected(self):
        wafer = default_wafer_config()
        with pytest.raises(ValueError):
            power_breakdown(1, 1, 1, 0.0, wafer)
        with pytest.raises(ValueError):
            power_breakdown(-1, 1, 1, 1.0, wafer)

    def test_power_efficiency(self):
        assert power_efficiency(1000, 10) == 100
        assert power_efficiency(1000, 0) == 0.0
