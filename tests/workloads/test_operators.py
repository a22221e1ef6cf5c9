"""Tests for the analytical operator models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.operators import (
    AttentionContext,
    AttentionScore,
    DType,
    Elementwise,
    Embedding,
    LayerNorm,
    Linear,
    OperatorKind,
    Softmax,
)


class TestLinear:
    def test_flop_count(self):
        op = Linear("fc", batch=2, seq=4, in_features=8, out_features=16)
        assert op.forward_flops == pytest.approx(2 * 2 * 4 * 8 * 16)
        assert op.backward_flops == pytest.approx(2 * op.forward_flops)

    def test_byte_counts(self):
        op = Linear("fc", batch=2, seq=4, in_features=8, out_features=16)
        assert op.input_bytes == 2 * 4 * 8 * 2
        assert op.weight_bytes == 8 * 16 * 2
        assert op.output_bytes == 2 * 4 * 16 * 2

    def test_weightless_linear(self):
        op = Linear("fc", 1, 1, 4, 4, has_weight=False)
        assert op.weight_bytes == 0
        assert op.backward_flops == op.forward_flops

    def test_dims_recorded(self):
        op = Linear("fc", 2, 4, 8, 16)
        assert op.dim("B") == 2 and op.dim("M") == 4
        assert op.dim("N") == 8 and op.dim("K") == 16
        with pytest.raises(KeyError):
            op.dim("Z")

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Linear("fc", 0, 4, 8, 16)

    def test_fp32_doubles_bytes(self):
        fp16 = Linear("a", 1, 2, 4, 8, dtype=DType.FP16)
        fp32 = Linear("b", 1, 2, 4, 8, dtype=DType.FP32)
        assert fp32.weight_bytes == 2 * fp16.weight_bytes

    @given(st.integers(1, 8), st.integers(1, 64), st.integers(1, 128),
           st.integers(1, 128))
    @settings(max_examples=40, deadline=None)
    def test_total_flops_is_forward_plus_backward(self, b, m, n, k):
        op = Linear("fc", b, m, n, k)
        assert op.total_flops == op.forward_flops + op.backward_flops


class TestAttention:
    def test_score_and_context_have_matching_flops(self):
        score = AttentionScore("qk", batch=2, heads=4, seq=128, head_dim=64)
        context = AttentionContext("sv", batch=2, heads=4, seq=128, head_dim=64)
        assert score.forward_flops == pytest.approx(context.forward_flops)

    def test_causal_masking_halves_flops(self):
        causal = AttentionScore("qk", 1, 1, 128, 64, causal=True)
        full = AttentionScore("qk", 1, 1, 128, 64, causal=False)
        assert causal.forward_flops == pytest.approx(full.forward_flops / 2)

    def test_kind(self):
        op = AttentionScore("qk", 1, 1, 16, 8)
        assert op.kind is OperatorKind.BATCHED_GEMM
        assert op.weight_bytes == 0


class TestSoftmaxAndNorms:
    def test_online_softmax_avoids_materialising_scores(self):
        online = Softmax("s", batch=1, heads=8, seq=1024, online=True)
        naive = Softmax("s", batch=1, heads=8, seq=1024, online=False)
        assert online.output_bytes < naive.output_bytes

    def test_layernorm_weight_is_two_vectors(self):
        op = LayerNorm("ln", batch=2, seq=8, hidden=512)
        assert op.weight_bytes == 2 * 512 * 2

    def test_elementwise_residual_flops(self):
        op = Elementwise("res", 2, 8, 512, flops_per_element=1.0)
        assert op.forward_flops == 2 * 8 * 512

    def test_embedding_weight_scales_with_vocab(self):
        small = Embedding("e", 1, 8, 128, vocab_size=1000)
        large = Embedding("e", 1, 8, 128, vocab_size=2000)
        assert large.weight_bytes == 2 * small.weight_bytes

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Softmax("s", 0, 1, 8)
        with pytest.raises(ValueError):
            LayerNorm("ln", 1, 1, 0)
