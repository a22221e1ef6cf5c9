"""Training-step accounting: FLOPs and mixed-precision memory footprints.

The paper trains with mixed precision: FP16 weights and activations, FP32 Adam
optimizer state. The per-device memory footprint therefore decomposes into

* **weights** — FP16 parameter shards,
* **gradients** — FP16 gradient shards,
* **optimizer** — FP32 master weights plus two FP32 Adam moments (12 bytes per
  parameter, the standard Megatron/ZeRO accounting),
* **activations** — forward activations retained for the backward pass.

Parallelism strategies shard or replicate each of these differently, which is
exactly the memory trade-off Fig. 4(c) and Fig. 13 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.workloads.graph import ComputeGraph
from repro.workloads.models import ModelConfig

#: Bytes of optimizer state per parameter: the two FP32 Adam moments. The
#: FP32 master copy of the weights is materialised transiently shard-by-shard
#: during the update rather than held resident (the memory-lean mixed-precision
#: recipe wafer-scale capacities require; keeping a resident master copy would
#: add 4 bytes/param and put even ideally-sharded 175B-class models above the
#: per-die HBM capacity of Table I).
ADAM_OPTIMIZER_BYTES_PER_PARAM = 8
#: Bytes of gradient storage per parameter (FP16 gradients).
GRADIENT_BYTES_PER_PARAM = 2
#: With full activation recomputation enabled, a checkpoint is stored every
#: this many transformer layers (Megatron's block-granular recompute).
CHECKPOINT_EVERY_LAYERS = 2


@dataclass(frozen=True)
class MemoryFootprint:
    """Per-device memory footprint of a training step, in bytes."""

    weights: float
    gradients: float
    optimizer: float
    activations: float

    @property
    def total(self) -> float:
        """Total bytes across all four categories."""
        return self.weights + self.gradients + self.optimizer + self.activations

    def scaled(self, factor: float) -> "MemoryFootprint":
        """Scale every component (used when replicating across groups)."""
        return MemoryFootprint(
            weights=self.weights * factor,
            gradients=self.gradients * factor,
            optimizer=self.optimizer * factor,
            activations=self.activations * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form for reports."""
        return {
            "weights": self.weights,
            "gradients": self.gradients,
            "optimizer": self.optimizer,
            "activations": self.activations,
            "total": self.total,
        }


@dataclass(frozen=True)
class TrainingStep:
    """Aggregate characteristics of one training step of a model."""

    model: ModelConfig
    flops: float
    weight_bytes: float
    gradient_bytes: float
    optimizer_bytes: float
    activation_bytes: float

    @classmethod
    def from_model(
        cls,
        model: ModelConfig,
        graph: Optional[ComputeGraph] = None,
        activation_checkpointing: bool = False,
    ) -> "TrainingStep":
        """Derive the training-step characteristics of ``model``.

        Args:
            model: the model configuration.
            graph: optional pre-built compute graph; when provided, activation
                bytes are summed from the graph (more faithful than the closed
                form) and FLOPs come from the graph as well.
            activation_checkpointing: when True, only per-layer boundary
                activations are retained and the rest are recomputed, which
                reduces activation memory to roughly 2/13ths of the full
                amount at the cost of one extra forward pass worth of FLOPs.
        """
        params = model.num_parameters
        weight_bytes = params * model.dtype.bytes
        gradient_bytes = params * GRADIENT_BYTES_PER_PARAM
        optimizer_bytes = params * ADAM_OPTIMIZER_BYTES_PER_PARAM

        if graph is not None:
            activation_bytes = graph.total_activation_bytes()
            flops = graph.total_flops(include_backward=True)
            built_layers = max(len(graph.layers()), 1)
            scale = model.num_layers / built_layers
            activation_bytes *= scale
            flops *= scale
        else:
            activation_bytes = cls._closed_form_activation_bytes(model)
            flops = model.training_flops_per_step()

        if activation_checkpointing:
            checkpoints = -(-model.num_layers // CHECKPOINT_EVERY_LAYERS)
            boundary = (model.batch_size * model.seq_length * model.hidden_size
                        * model.dtype.bytes * checkpoints)
            activation_bytes = float(boundary)
            flops *= 4.0 / 3.0  # one extra forward pass on top of fwd+bwd

        return cls(
            model=model,
            flops=flops,
            weight_bytes=float(weight_bytes),
            gradient_bytes=float(gradient_bytes),
            optimizer_bytes=float(optimizer_bytes),
            activation_bytes=float(activation_bytes),
        )

    @staticmethod
    def _closed_form_activation_bytes(model: ModelConfig) -> float:
        """Standard per-layer activation estimate (Korthikanti et al. style).

        Roughly ``s*b*h*(34 + 5*a*s/h)`` bytes per layer in FP16 without
        selective recomputation; with Flash-style attention the attention-score
        term drops, leaving ~34*s*b*h bytes per layer.
        """
        per_layer = (34.0 * model.seq_length * model.batch_size
                     * model.hidden_size)
        return per_layer * model.num_layers

    def replicated_footprint(self) -> MemoryFootprint:
        """Footprint if a single device held the entire model and batch."""
        return MemoryFootprint(
            weights=self.weight_bytes,
            gradients=self.gradient_bytes,
            optimizer=self.optimizer_bytes,
            activations=self.activation_bytes,
        )
