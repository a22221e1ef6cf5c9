"""Analytical operator models.

Every operator knows its forward/backward FLOPs and the byte sizes of its
inputs, weights, and outputs. These are the quantities the wafer cost model
consumes: computation latency is FLOPs over effective throughput, DRAM traffic
and memory occupancy follow from the byte counts, and communication volumes
are derived by the parallelism layer from how each operator's tensors are
partitioned.

Conventions (matching Eq. (1) of the paper):

* a linear layer computes ``O[B, M, K] = I[B, M, N] x W[N, K]`` — ``B`` is the
  batch, ``M`` the sequence length, ``N`` the input-hidden and ``K`` the
  output-hidden dimension;
* the backward pass costs roughly twice the forward FLOPs (dI and dW GEMMs);
* mixed-precision training stores weights/activations in FP16 and optimizer
  state in FP32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class DType(Enum):
    """Element types with their byte widths."""

    FP32 = 4
    FP16 = 2
    BF16 = 2
    INT8 = 1

    @property
    def bytes(self) -> int:
        """Byte width of one element."""
        return self.value


class OperatorKind(Enum):
    """Coarse operator category used by cost models and partitioners."""

    GEMM = "gemm"
    BATCHED_GEMM = "batched_gemm"
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"


@dataclass(frozen=True)
class Operator:
    """Base analytical operator.

    Attributes:
        name: readable operator name.
        kind: coarse category of the operator.
        forward_flops: floating-point operations of the forward pass.
        backward_flops: floating-point operations of the backward pass
            (including the weight-gradient GEMM where applicable).
        input_bytes: bytes of activations read in the forward pass.
        weight_bytes: bytes of trainable parameters.
        output_bytes: bytes of activations produced (and typically saved for
            the backward pass).
        dims: named dimension sizes (B, M, N, K, heads, ...) so partitioners
            can split the operator along a specific axis.
    """

    name: str
    kind: OperatorKind
    forward_flops: float
    backward_flops: float
    input_bytes: float
    weight_bytes: float
    output_bytes: float
    dims: Dict[str, int] = field(default_factory=dict)

    @property
    def total_flops(self) -> float:
        """Forward plus backward FLOPs for one training step."""
        return self.forward_flops + self.backward_flops

    @property
    def activation_bytes(self) -> float:
        """Bytes of activations that must be kept for the backward pass."""
        return self.output_bytes

    def dim(self, key: str) -> int:
        """Return a named dimension size, raising a clear error if absent."""
        try:
            return self.dims[key]
        except KeyError:
            raise KeyError(f"operator {self.name} has no dimension '{key}'") from None


def _check_positive(**dims: int) -> None:
    for key, value in dims.items():
        if value <= 0:
            raise ValueError(f"dimension {key} must be positive, got {value}")


def Linear(
    name: str,
    batch: int,
    seq: int,
    in_features: int,
    out_features: int,
    dtype: DType = DType.FP16,
    has_weight: bool = True,
) -> Operator:
    """A dense linear layer ``O[B, M, K] = I[B, M, N] x W[N, K]``.

    Forward FLOPs are ``2 * B * M * N * K`` (multiply-accumulate counted as
    two); backward costs twice that (input-gradient plus weight-gradient
    GEMMs).
    """
    _check_positive(batch=batch, seq=seq, in_features=in_features,
                    out_features=out_features)
    forward = 2.0 * batch * seq * in_features * out_features
    backward = 2.0 * forward if has_weight else forward
    input_bytes = batch * seq * in_features * dtype.bytes
    weight_bytes = in_features * out_features * dtype.bytes if has_weight else 0
    output_bytes = batch * seq * out_features * dtype.bytes
    return Operator(
        name=name,
        kind=OperatorKind.GEMM,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=float(input_bytes),
        weight_bytes=float(weight_bytes),
        output_bytes=float(output_bytes),
        dims={"B": batch, "M": seq, "N": in_features, "K": out_features},
    )


def AttentionScore(
    name: str,
    batch: int,
    heads: int,
    seq: int,
    head_dim: int,
    dtype: DType = DType.FP16,
    causal: bool = True,
) -> Operator:
    """The Q x K^T batched GEMM producing attention scores.

    With causal masking only the lower triangle is computed, halving the
    effective FLOPs (the paper's FlashAttention-style operators exploit this).
    """
    _check_positive(batch=batch, heads=heads, seq=seq, head_dim=head_dim)
    scale = 0.5 if causal else 1.0
    forward = 2.0 * batch * heads * seq * seq * head_dim * scale
    backward = 2.0 * forward
    input_bytes = 2.0 * batch * heads * seq * head_dim * dtype.bytes
    output_bytes = batch * heads * seq * seq * dtype.bytes * scale
    return Operator(
        name=name,
        kind=OperatorKind.BATCHED_GEMM,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=input_bytes,
        weight_bytes=0.0,
        output_bytes=output_bytes,
        dims={"B": batch, "H": heads, "M": seq, "N": head_dim, "K": seq},
    )


def AttentionContext(
    name: str,
    batch: int,
    heads: int,
    seq: int,
    head_dim: int,
    dtype: DType = DType.FP16,
    causal: bool = True,
) -> Operator:
    """The Score x V batched GEMM producing the attention context."""
    _check_positive(batch=batch, heads=heads, seq=seq, head_dim=head_dim)
    scale = 0.5 if causal else 1.0
    forward = 2.0 * batch * heads * seq * seq * head_dim * scale
    backward = 2.0 * forward
    input_bytes = (
        batch * heads * seq * seq * dtype.bytes * scale
        + batch * heads * seq * head_dim * dtype.bytes
    )
    output_bytes = batch * heads * seq * head_dim * dtype.bytes
    return Operator(
        name=name,
        kind=OperatorKind.BATCHED_GEMM,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=input_bytes,
        weight_bytes=0.0,
        output_bytes=output_bytes,
        dims={"B": batch, "H": heads, "M": seq, "N": seq, "K": head_dim},
    )


def Softmax(
    name: str,
    batch: int,
    heads: int,
    seq: int,
    dtype: DType = DType.FP16,
    causal: bool = True,
    online: bool = True,
) -> Operator:
    """Row-wise softmax over attention scores.

    ``online=True`` models the online-softmax used with FlashAttention, which
    keeps the score matrix tiled in SRAM and avoids materialising it in HBM:
    the output bytes then only cover the per-row statistics rather than the
    full S x S matrix.
    """
    _check_positive(batch=batch, heads=heads, seq=seq)
    scale = 0.5 if causal else 1.0
    elements = batch * heads * seq * seq * scale
    # exp, subtract max, sum, divide: ~5 flops per element.
    forward = 5.0 * elements
    backward = 4.0 * elements
    input_bytes = elements * dtype.bytes
    if online:
        output_bytes = batch * heads * seq * 2 * DType.FP32.bytes
    else:
        output_bytes = elements * dtype.bytes
    return Operator(
        name=name,
        kind=OperatorKind.SOFTMAX,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=input_bytes,
        weight_bytes=0.0,
        output_bytes=float(output_bytes),
        dims={"B": batch, "H": heads, "M": seq, "K": seq},
    )


def LayerNorm(
    name: str,
    batch: int,
    seq: int,
    hidden: int,
    dtype: DType = DType.FP16,
) -> Operator:
    """Layer normalisation over the hidden dimension."""
    _check_positive(batch=batch, seq=seq, hidden=hidden)
    elements = batch * seq * hidden
    forward = 5.0 * elements
    backward = 8.0 * elements
    tensor_bytes = elements * dtype.bytes
    weight_bytes = 2 * hidden * dtype.bytes  # gain and bias vectors
    return Operator(
        name=name,
        kind=OperatorKind.LAYERNORM,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=float(tensor_bytes),
        weight_bytes=float(weight_bytes),
        output_bytes=float(tensor_bytes),
        dims={"B": batch, "M": seq, "N": hidden},
    )


def Elementwise(
    name: str,
    batch: int,
    seq: int,
    hidden: int,
    dtype: DType = DType.FP16,
    flops_per_element: float = 4.0,
) -> Operator:
    """Element-wise operator (GeLU, SiLU, residual add, dropout, ...).

    ``flops_per_element`` defaults to 4 which approximates GeLU/SiLU; residual
    adds can pass 1.
    """
    _check_positive(batch=batch, seq=seq, hidden=hidden)
    elements = batch * seq * hidden
    forward = flops_per_element * elements
    backward = flops_per_element * elements
    tensor_bytes = elements * dtype.bytes
    return Operator(
        name=name,
        kind=OperatorKind.ELEMENTWISE,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=float(tensor_bytes),
        weight_bytes=0.0,
        output_bytes=float(tensor_bytes),
        dims={"B": batch, "M": seq, "N": hidden},
    )


def Embedding(
    name: str,
    batch: int,
    seq: int,
    hidden: int,
    vocab_size: int,
    dtype: DType = DType.FP16,
) -> Operator:
    """Token embedding lookup (forward is a gather; backward a scatter-add)."""
    _check_positive(batch=batch, seq=seq, hidden=hidden, vocab_size=vocab_size)
    tokens = batch * seq
    forward = float(tokens * hidden)  # gather cost approximated as one op/elem
    backward = float(tokens * hidden)
    weight_bytes = vocab_size * hidden * dtype.bytes
    output_bytes = tokens * hidden * dtype.bytes
    return Operator(
        name=name,
        kind=OperatorKind.EMBEDDING,
        forward_flops=forward,
        backward_flops=backward,
        input_bytes=float(tokens * 4),  # int32 token ids
        weight_bytes=float(weight_bytes),
        output_bytes=float(output_bytes),
        dims={"B": batch, "M": seq, "N": hidden, "V": vocab_size},
    )
