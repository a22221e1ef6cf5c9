"""Tests for ParallelSpec and the communication-task abstractions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallelism.comm import (
    CollectiveType,
    CommTask,
    collective_wire_bytes,
)
from repro.parallelism.spec import ParallelSpec


class TestParallelSpec:
    def test_defaults_are_trivial(self):
        spec = ParallelSpec()
        assert spec.total_degree == 1

    def test_total_degree_is_product(self):
        spec = ParallelSpec(dp=2, tp=4, tatp=4)
        assert spec.total_degree == 32
        assert spec.intra_stage_degree == 32

    def test_pipeline_excluded_from_intra_stage(self):
        spec = ParallelSpec(dp=4, pp=2)
        assert spec.intra_stage_degree == 4
        assert spec.total_degree == 8
        assert spec.without_pipeline().pp == 1

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            ParallelSpec(dp=0)

    def test_sp_within_tp_requires_sp_one(self):
        with pytest.raises(ValueError):
            ParallelSpec(tp=4, sp=2, sp_within_tp=True)

    def test_effective_sp_follows_coupling(self):
        coupled = ParallelSpec(tp=8, sp_within_tp=True)
        assert coupled.effective_sp == 8
        assert coupled.sequence_split_degree == 8
        standalone = ParallelSpec(sp=4)
        assert standalone.effective_sp == 4

    def test_validate_for(self):
        spec = ParallelSpec(dp=4, tatp=8)
        spec.validate_for(32)
        with pytest.raises(ValueError):
            spec.validate_for(16)

    def test_fits(self):
        spec = ParallelSpec(dp=4)
        assert spec.fits(32)
        assert not spec.fits(6)

    def test_label_mentions_extras_only_when_used(self):
        assert "pp" not in ParallelSpec(dp=2).label()
        assert "pp=2" in ParallelSpec(dp=2, pp=2).label()
        assert "fsdp=4" in ParallelSpec(fsdp=4).label()

    def test_with_degree(self):
        spec = ParallelSpec(dp=4).with_degree("tatp", 8)
        assert spec.tatp == 8 and spec.dp == 4
        with pytest.raises(KeyError):
            spec.with_degree("unknown", 2)

    def test_enumerate_covers_all_factorizations(self):
        specs = list(ParallelSpec.enumerate(8, dimensions=("dp", "tatp")))
        pairs = {(spec.dp, spec.tatp) for spec in specs}
        assert pairs == {(1, 8), (2, 4), (4, 2), (8, 1)}

    @given(st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=8, deadline=None)
    def test_enumerate_products_match_device_count(self, devices):
        for spec in ParallelSpec.enumerate(devices):
            assert spec.total_degree == devices

    def test_data_parallel_degree_combines_dp_and_fsdp(self):
        spec = ParallelSpec(dp=2, fsdp=4)
        assert spec.data_parallel_degree == 8


class TestCollectiveWireBytes:
    def test_allreduce_volume(self):
        wire = collective_wire_bytes(CollectiveType.ALL_REDUCE, 1000, 4)
        assert wire == pytest.approx(2 * 3 / 4 * 1000)

    def test_allgather_volume(self):
        wire = collective_wire_bytes(CollectiveType.ALL_GATHER, 1000, 4)
        assert wire == pytest.approx(3 / 4 * 1000)

    def test_p2p_volume_is_buffer(self):
        assert collective_wire_bytes(CollectiveType.P2P, 1000, 2) == 1000

    def test_single_member_group_is_free(self):
        assert collective_wire_bytes(CollectiveType.ALL_REDUCE, 1000, 1) == 0

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            collective_wire_bytes(CollectiveType.ALL_REDUCE, -1, 4)

    @given(st.integers(2, 64), st.floats(1, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_allreduce_is_twice_allgather(self, group, buffer_bytes):
        ar = collective_wire_bytes(CollectiveType.ALL_REDUCE, buffer_bytes, group)
        ag = collective_wire_bytes(CollectiveType.ALL_GATHER, buffer_bytes, group)
        assert ar == pytest.approx(2 * ag)


class TestCommTask:
    def test_total_bytes(self):
        task = CommTask(CollectiveType.P2P, group_size=2, bytes_per_device=100)
        assert task.total_bytes == 200

    def test_trivial_tasks(self):
        assert CommTask(CollectiveType.P2P, 1, 100).is_trivial
        assert CommTask(CollectiveType.P2P, 2, 0).is_trivial
        assert not CommTask(CollectiveType.P2P, 2, 10).is_trivial

    def test_validation(self):
        with pytest.raises(ValueError):
            CommTask(CollectiveType.P2P, 0, 10)
        with pytest.raises(ValueError):
            CommTask(CollectiveType.P2P, 2, -10)
