"""Tests for the strategy analysis (memory footprints and communication tasks)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.comm import CollectiveType
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model
from repro.workloads.models import get_model


class TestMemoryFootprints:
    def test_megatron_tp_replicates_activations(self, gpt3_6b):
        tp_only = analyze_model(gpt3_6b, ParallelSpec(tp=8), num_devices=8)
        ideal = analyze_model(gpt3_6b, ParallelSpec(tatp=8), num_devices=8)
        # TATP shards both operands, so its activation footprint is lower.
        assert tp_only.memory.activations > ideal.memory.activations

    def test_sp_within_tp_removes_replication(self, gpt3_6b):
        plain_tp = analyze_model(gpt3_6b, ParallelSpec(tp=8), num_devices=8)
        mesp = analyze_model(
            gpt3_6b, ParallelSpec(tp=8, sp_within_tp=True), num_devices=8)
        assert mesp.memory.activations < plain_tp.memory.activations

    def test_weights_shard_by_tp_and_tatp_but_not_dp(self, gpt3_6b):
        dp = analyze_model(gpt3_6b, ParallelSpec(dp=8), num_devices=8)
        tp = analyze_model(gpt3_6b, ParallelSpec(tp=8), num_devices=8)
        tatp = analyze_model(gpt3_6b, ParallelSpec(tatp=8), num_devices=8)
        assert dp.memory.weights == pytest.approx(8 * tp.memory.weights)
        assert tp.memory.weights == pytest.approx(tatp.memory.weights)

    def test_zero1_shards_optimizer_across_dp(self, gpt3_6b):
        zero1 = analyze_model(
            gpt3_6b, ParallelSpec(dp=8, zero1_optimizer=True), num_devices=8)
        replicated = analyze_model(
            gpt3_6b, ParallelSpec(dp=8, zero1_optimizer=False), num_devices=8)
        assert replicated.memory.optimizer == pytest.approx(
            8 * zero1.memory.optimizer)

    def test_fsdp_shards_everything(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(fsdp=32), num_devices=32)
        single = analyze_model(gpt3_6b, ParallelSpec(), num_devices=1)
        assert plan.memory.weights == pytest.approx(single.memory.weights / 32)
        assert plan.memory.optimizer == pytest.approx(single.memory.optimizer / 32)

    def test_activation_checkpointing_reduces_memory_increases_flops(self, gpt3_6b):
        spec = ParallelSpec(fsdp=32)
        plain = analyze_model(gpt3_6b, spec, num_devices=32)
        checkpointed = analyze_model(gpt3_6b, spec, num_devices=32,
                                     activation_checkpointing=True)
        assert checkpointed.memory.activations < plain.memory.activations
        assert checkpointed.flops_per_device > plain.flops_per_device

    def test_flops_split_evenly(self, gpt3_6b):
        plan8 = analyze_model(gpt3_6b, ParallelSpec(tatp=8), num_devices=8)
        plan32 = analyze_model(gpt3_6b, ParallelSpec(tatp=32), num_devices=32)
        assert plan8.flops_per_device == pytest.approx(4 * plan32.flops_per_device)

    @given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4]),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_memory_never_negative_and_monotone_in_tatp(self, tatp, dp, tp):
        model = get_model("gpt3-6.7b")
        spec = ParallelSpec(dp=dp, tp=tp, tatp=tatp)
        plan = analyze_model(model, spec)
        assert plan.memory.total > 0
        doubled = analyze_model(model, spec.with_degree("tatp", tatp * 2))
        assert doubled.memory.total <= plan.memory.total + 1e-6


class TestCommunicationTasks:
    def test_pure_dp_has_single_gradient_allreduce(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=8), num_devices=8)
        labels = [task.label for task in plan.comm_tasks]
        assert labels == ["dp-grad-allreduce"]
        assert plan.overlap_tasks == []

    def test_tp_adds_activation_collectives_scaled_by_layers(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(tp=8), num_devices=8)
        tp_tasks = [t for t in plan.comm_tasks if t.dimension == "tp"]
        assert len(tp_tasks) == 1
        assert tp_tasks[0].count == pytest.approx(4 * gpt3_6b.num_layers)

    def test_fsdp_gathers_weights_twice_per_layer(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(fsdp=8), num_devices=8)
        gather = next(t for t in plan.comm_tasks
                      if t.label == "fsdp-weight-allgather")
        scatter = next(t for t in plan.comm_tasks
                       if t.label == "fsdp-grad-reducescatter")
        assert gather.count == pytest.approx(2 * gpt3_6b.num_layers)
        assert scatter.count == pytest.approx(gpt3_6b.num_layers)

    def test_tatp_stream_is_overlappable(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(tatp=8), num_devices=8)
        assert plan.comm_tasks == []
        assert len(plan.overlap_tasks) == 1
        stream = plan.overlap_tasks[0]
        assert stream.kind is CollectiveType.STREAM
        assert stream.overlappable
        assert plan.tatp_rounds_per_layer == 8

    def test_tatp_plus_dp_mixes_tasks(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)
        dims = {t.dimension for t in plan.all_tasks}
        assert dims == {"dp", "tatp"}

    def test_cp_adds_kv_allgather(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(cp=4), num_devices=4)
        assert any(t.dimension == "cp" for t in plan.comm_tasks)

    def test_sp_without_tp_gathers_sequence(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(sp=4), num_devices=4)
        assert any(t.label == "sp-sequence-allgather" for t in plan.comm_tasks)

    def test_pipeline_adds_p2p(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, pp=2), num_devices=8)
        assert any(t.dimension == "pp" for t in plan.comm_tasks)
        assert plan.num_microbatches > 1

    def test_tp_collective_volume_shrinks_with_dp(self, gpt3_6b):
        narrow = analyze_model(gpt3_6b, ParallelSpec(dp=4, tp=8), num_devices=32)
        wide = analyze_model(gpt3_6b, ParallelSpec(dp=1, tp=8), num_devices=8)
        narrow_tp = next(t for t in narrow.comm_tasks if t.dimension == "tp")
        wide_tp = next(t for t in wide.comm_tasks if t.dimension == "tp")
        assert narrow_tp.bytes_per_device < wide_tp.bytes_per_device

    def test_mismatched_device_count_rejected(self, gpt3_6b):
        with pytest.raises(ValueError):
            analyze_model(gpt3_6b, ParallelSpec(dp=4), num_devices=32)

    def test_tasks_are_tagged_by_dimension(self, gpt3_6b):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)
        assert {task.dimension for task in plan.all_tasks} == {"dp", "tatp"}


class TestBaselineSpecs:
    @pytest.mark.parametrize("scheme", list(BaselineScheme))
    def test_candidates_fill_the_wafer(self, scheme):
        for spec in candidate_specs(scheme, 32, max_tp=8, max_tatp=32):
            assert spec.total_degree == 32

    def test_temp_space_includes_tatp(self):
        specs = candidate_specs(BaselineScheme.TEMP, 32)
        assert any(spec.tatp > 1 for spec in specs)

    def test_megatron_space_excludes_tatp_and_fsdp(self):
        specs = candidate_specs(BaselineScheme.MEGATRON1, 32)
        assert all(spec.tatp == 1 and spec.fsdp == 1 for spec in specs)

    def test_fsdp_space_has_no_tensor_parallelism(self):
        specs = candidate_specs(BaselineScheme.FSDP, 32)
        assert all(spec.tp == 1 for spec in specs)
        assert any(spec.fsdp == 32 for spec in specs)

    def test_pipeline_degrees_respected(self):
        specs = candidate_specs(BaselineScheme.TEMP, 64, pipeline_degrees=(2,))
        assert all(spec.pp == 2 for spec in specs)

    def test_no_duplicate_candidates(self):
        specs = candidate_specs(BaselineScheme.MESP, 32)
        keys = [(s.dp, s.tp, s.sp, s.cp, s.fsdp, s.tatp, s.pp, s.sp_within_tp)
                for s in specs]
        assert len(keys) == len(set(keys))
