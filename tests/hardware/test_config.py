"""Tests for the hardware configuration dataclasses (Table I)."""

import dataclasses

import pytest

from repro.hardware.config import (
    GB,
    TB,
    GPUClusterConfig,
    GPUDeviceConfig,
    HBMConfig,
    LinkConfig,
    WaferConfig,
    default_wafer_config,
)


class TestLinkConfig:
    def test_table_i_defaults(self):
        link = LinkConfig()
        assert link.per_die_bandwidth == pytest.approx(4 * TB)
        assert link.latency == pytest.approx(200e-9)
        assert link.max_reach_mm == 50.0

    def test_transfer_time_includes_latency_and_serialization(self):
        link = LinkConfig(bandwidth=1 * TB, latency=1e-7)
        time = link.transfer_time(1 * TB)
        assert time == pytest.approx(1.0 + 1e-7)

    def test_zero_bytes_costs_only_latency(self):
        link = LinkConfig()
        assert link.transfer_time(0) == pytest.approx(link.latency)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig().transfer_time(-1)

    def test_energy_is_per_byte_not_per_bit(self):
        link = LinkConfig()
        # 5.0 pJ/bit -> 40 pJ/byte.
        assert link.energy_per_byte == pytest.approx(40e-12)


class TestHBMConfig:
    def test_table_i_defaults(self):
        hbm = HBMConfig()
        assert hbm.capacity == 72 * GB
        assert hbm.bandwidth == 1 * TB
        assert hbm.latency == pytest.approx(100e-9)

    def test_access_time(self):
        hbm = HBMConfig(bandwidth=1 * TB, latency=0.0)
        assert hbm.access_time(1 * TB) == pytest.approx(1.0)

    def test_negative_access_rejected(self):
        with pytest.raises(ValueError):
            HBMConfig().access_time(-5)


class TestWaferConfig:
    def test_default_grid_is_4x8(self):
        wafer = default_wafer_config()
        assert (wafer.rows, wafer.cols) == (4, 8)
        assert wafer.num_dies == 32

    def test_aggregates(self):
        wafer = default_wafer_config()
        assert wafer.total_hbm_capacity == pytest.approx(32 * 72 * GB)
        assert wafer.total_peak_flops == pytest.approx(32 * wafer.die.peak_flops)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            WaferConfig(rows=0, cols=8)

    def test_overrides(self):
        wafer = default_wafer_config(d2d_bandwidth=2 * TB, hbm_capacity=100 * GB)
        assert wafer.d2d.bandwidth == 2 * TB
        assert wafer.die.hbm.capacity == 100 * GB

    def test_config_is_frozen(self):
        wafer = default_wafer_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            wafer.rows = 10


class TestGPUConfigs:
    def test_cluster_matches_wafer_scale_comparison(self):
        cluster = GPUClusterConfig()
        assert cluster.num_devices == 32
        # 32 x 312 TFLOPS ~ 10 PFLOPS of FP16 peak.
        assert cluster.total_peak_flops == pytest.approx(32 * 312e12)

    def test_device_defaults(self):
        device = GPUDeviceConfig()
        assert device.memory_capacity == 80 * GB
        assert device.peak_flops == pytest.approx(312e12)
