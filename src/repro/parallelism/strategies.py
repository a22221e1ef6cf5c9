"""Analytical execution plans for hybrid parallel strategies.

Given a model, a :class:`~repro.parallelism.spec.ParallelSpec`, and the number
of devices it runs on, :func:`analyze_model` derives everything the simulator
needs:

* per-device FLOPs of one training step,
* the per-device mixed-precision memory footprint (weights, gradients,
  optimizer state, activations) including the replication each strategy
  induces,
* the list of :class:`~repro.parallelism.comm.CommTask` records describing
  the collectives, point-to-point transfers, and TATP streaming traffic of the
  step.

The analysis captures the structural differences the paper's evaluation turns
on:

* Megatron-style TP replicates the block-boundary activations inside the TP
  group and pays two activation all-reduces per layer in each direction;
* SP removes that replication (Megatron-3) by splitting the norm/dropout
  regions and converting the all-reduces into all-gather + reduce-scatter
  pairs of the same volume;
* CP splits the attention context and pays a KV all-gather per layer;
* FSDP shards weights/gradients/optimizer but pays per-layer weight
  all-gathers (forward and backward) plus a gradient reduce-scatter;
* DP replicates everything and pays one (overlappable) gradient all-reduce;
* TATP shards inputs *and* weights with no replication and only streams the
  smaller operand to physical neighbours, fully overlappable with compute;
* PP splits layers into stages and pays per-microbatch activation transfers
  plus the pipeline bubble (accounted for by the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.parallelism.comm import (
    CollectiveType,
    CommTask,
    collective_wire_bytes,
)
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.tatp import StreamChoice, select_stream_tensor
from repro.workloads.models import ModelConfig
from repro.workloads.training import MemoryFootprint, TrainingStep

#: Fraction of per-layer activations that Megatron TP shards across the TP
#: group (FFN intermediates and attention internals); the remainder lives in
#: the norm/dropout/residual regions and is replicated unless SP splits it.
TP_SHARDED_ACTIVATION_FRACTION = 0.6

#: Default number of pipeline microbatches per training step.
DEFAULT_MICROBATCHES = 8

#: Sequences per data-parallel rank that are live at once. Training uses
#: gradient accumulation: the global batch is processed micro-batch by
#: micro-batch, so only one micro-batch's activations occupy memory at a time.
MICRO_BATCH_SEQUENCES = 1


@dataclass
class ExecutionPlan:
    """Everything the simulator needs to cost one training step of a strategy.

    Attributes:
        model: the model configuration.
        spec: the hybrid parallel specification.
        num_devices: devices the plan occupies (``spec.total_degree``).
        flops_per_device: FLOPs each device executes per training step.
        memory: per-device memory footprint in bytes.
        comm_tasks: critical-path communication tasks (per step).
        overlap_tasks: communication that can hide under computation
            (TATP streaming, DP gradient all-reduce).
        num_microbatches: microbatch count used when ``spec.pp > 1``.
        tatp_rounds_per_layer: TATP rounds executed per layer (0 if unused).
        stream_choice: operand TATP streams, when TATP is active.
    """

    model: ModelConfig
    spec: ParallelSpec
    num_devices: int
    flops_per_device: float
    memory: MemoryFootprint
    comm_tasks: List[CommTask] = field(default_factory=list)
    overlap_tasks: List[CommTask] = field(default_factory=list)
    num_microbatches: int = DEFAULT_MICROBATCHES
    tatp_rounds_per_layer: int = 0
    stream_choice: Optional[StreamChoice] = None

    @property
    def all_tasks(self) -> List[CommTask]:
        """Critical-path plus overlappable tasks."""
        return list(self.comm_tasks) + list(self.overlap_tasks)

    def critical_comm_bytes(self) -> float:
        """Total per-device wire bytes on the critical path."""
        return sum(task.bytes_per_device * task.count for task in self.comm_tasks)

    def overlap_comm_bytes(self) -> float:
        """Total per-device wire bytes that can hide under compute."""
        return sum(task.bytes_per_device * task.count for task in self.overlap_tasks)

    def total_comm_bytes(self) -> float:
        """Total per-device wire bytes of the step."""
        return self.critical_comm_bytes() + self.overlap_comm_bytes()


def analyze_model(
    model: ModelConfig,
    spec: ParallelSpec,
    num_devices: Optional[int] = None,
    activation_checkpointing: bool = False,
    num_microbatches: int = DEFAULT_MICROBATCHES,
) -> ExecutionPlan:
    """Build the execution plan of ``model`` under ``spec``.

    Args:
        model: the model configuration (Table II entry or custom).
        spec: the hybrid parallel specification; its total degree must equal
            ``num_devices`` when that is given.
        num_devices: number of devices; defaults to ``spec.total_degree``.
        activation_checkpointing: enable selective recomputation (reduces
            activation memory, adds ~1/3 more compute).
        num_microbatches: pipeline microbatches when ``spec.pp > 1``.

    Returns:
        The :class:`ExecutionPlan` for one training step.
    """
    devices = num_devices if num_devices is not None else spec.total_degree
    spec.validate_for(devices)
    step = TrainingStep.from_model(
        model, activation_checkpointing=activation_checkpointing)

    flops_per_device = step.flops / devices
    memory = _memory_footprint(model, spec, step)
    critical, overlap, stream_choice = _communication_tasks(
        model, spec, step, num_microbatches)

    return ExecutionPlan(
        model=model,
        spec=spec,
        num_devices=devices,
        flops_per_device=flops_per_device,
        memory=memory,
        comm_tasks=critical,
        overlap_tasks=overlap,
        num_microbatches=num_microbatches if spec.pp > 1 else 1,
        tatp_rounds_per_layer=spec.tatp if spec.tatp > 1 else 0,
        stream_choice=stream_choice,
    )


# Memory ---------------------------------------------------------------------


def _memory_footprint(
    model: ModelConfig, spec: ParallelSpec, step: TrainingStep
) -> MemoryFootprint:
    """Per-device memory footprint under ``spec``.

    Sharding assumptions, matching standard Megatron / FSDP practice:

    * weights and gradients are sharded by TP, TATP, FSDP and PP and
      replicated across DP/SP/CP ranks,
    * the FP32 optimizer state additionally shards across the data-parallel
      ranks (ZeRO-1 style distributed optimizer),
    * only one micro-batch's activations are live at a time thanks to
      gradient accumulation; TP shards only its "internal" activation
      fraction while the norm-region activations are replicated unless
      Megatron-3-style SP splits them.
    """
    weight_shard = spec.tp * spec.tatp * spec.fsdp * spec.pp
    state_shard = weight_shard * (spec.dp if spec.zero1_optimizer else 1)

    weights = step.weight_bytes / weight_shard
    gradients = step.gradient_bytes / weight_shard
    optimizer = step.optimizer_bytes / state_shard

    batch_seq_divisor = (
        spec.dp * spec.fsdp * spec.cp * spec.tatp * spec.pp * spec.sp
    )
    sharded_fraction = TP_SHARDED_ACTIVATION_FRACTION
    replicated_fraction = 1.0 - sharded_fraction
    norm_region_divisor = spec.effective_sp if spec.sp_within_tp else 1
    tp_factor = (
        sharded_fraction / spec.tp + replicated_fraction / norm_region_divisor
    )
    # Gradient accumulation keeps only MICRO_BATCH_SEQUENCES sequences per
    # data-parallel rank in flight.
    sequences_per_rank = model.batch_size / spec.data_parallel_degree
    live_fraction = min(1.0, MICRO_BATCH_SEQUENCES / max(sequences_per_rank, 1.0))
    activations = (
        step.activation_bytes / batch_seq_divisor * tp_factor * live_fraction
    )

    return MemoryFootprint(
        weights=weights,
        gradients=gradients,
        optimizer=optimizer,
        activations=activations,
    )


# Communication ----------------------------------------------------------------


def _communication_tasks(
    model: ModelConfig,
    spec: ParallelSpec,
    step: TrainingStep,
    num_microbatches: int,
) -> (List[CommTask], List[CommTask], Optional[StreamChoice]):
    """Derive the critical-path and overlappable communication of one step."""
    critical: List[CommTask] = []
    overlap: List[CommTask] = []

    layers = model.num_layers
    layers_per_stage = max(1, layers // spec.pp)
    dtype_bytes = model.dtype.bytes

    # Per-device tensor slice sizes used repeatedly below.
    batch_shard = model.batch_size / spec.data_parallel_degree
    seq_shard = model.seq_length / spec.sequence_split_degree
    # Volume of the block-boundary activation the TP collectives move: the
    # full sequence inside the CP shard (SP shards it for storage, but the
    # collective still has to materialise / reduce the whole thing).
    tp_collective_buffer = (
        batch_shard * (model.seq_length / spec.cp) * model.hidden_size
        * dtype_bytes / spec.tatp
    )
    activation_slice = (
        batch_shard * seq_shard * model.hidden_size * dtype_bytes / spec.tatp
    )
    embedding_params = model.vocab_size * model.hidden_size
    layer_weight_bytes = (
        (model.num_parameters - embedding_params) / layers * dtype_bytes
    )
    layer_weight_shard = layer_weight_bytes / (spec.tp * spec.tatp)
    grad_shard_bytes = step.gradient_bytes / (spec.tp * spec.tatp * spec.fsdp * spec.pp)

    # Tensor parallelism: two activation collectives per layer in forward and
    # two in backward (Megatron); with SP they become all-gather +
    # reduce-scatter pairs of identical volume, so the cost model treats the
    # volume the same but SP earns its memory saving above.
    if spec.tp > 1:
        kind = (CollectiveType.ALL_GATHER if spec.sp_within_tp
                else CollectiveType.ALL_REDUCE)
        wire = collective_wire_bytes(
            CollectiveType.ALL_REDUCE, tp_collective_buffer, spec.tp)
        critical.append(CommTask(
            kind=kind,
            group_size=spec.tp,
            bytes_per_device=wire,
            count=4.0 * layers_per_stage,
            label="tp-activation-collective",
            overlappable=False,
            dimension="tp",
        ))

    # Sequence parallelism without TP (Ulysses/ring style): the attention
    # block needs the full sequence, so each layer all-gathers the activation
    # slice in forward and reduce-scatters in backward.
    if spec.sp > 1 and spec.tp == 1:
        wire = collective_wire_bytes(
            CollectiveType.ALL_GATHER,
            activation_slice * spec.sp,
            spec.sp,
        )
        critical.append(CommTask(
            kind=CollectiveType.ALL_GATHER,
            group_size=spec.sp,
            bytes_per_device=wire,
            count=2.0 * layers_per_stage,
            label="sp-sequence-allgather",
            overlappable=False,
            dimension="sp",
        ))

    # Context parallelism: KV tensors are gathered across the CP group for the
    # attention computation of every layer.
    if spec.cp > 1:
        kv_bytes = 2.0 * batch_shard * model.seq_length * model.hidden_size * dtype_bytes
        wire = collective_wire_bytes(
            CollectiveType.ALL_GATHER, kv_bytes / spec.tp, spec.cp)
        critical.append(CommTask(
            kind=CollectiveType.ALL_GATHER,
            group_size=spec.cp,
            bytes_per_device=wire,
            count=2.0 * layers_per_stage,
            label="cp-kv-allgather",
            overlappable=False,
            dimension="cp",
        ))

    # FSDP: gather the layer's weight shards before the forward and backward
    # of every layer, and reduce-scatter its gradients afterwards.
    if spec.fsdp > 1:
        gather_wire = collective_wire_bytes(
            CollectiveType.ALL_GATHER, layer_weight_shard, spec.fsdp)
        critical.append(CommTask(
            kind=CollectiveType.ALL_GATHER,
            group_size=spec.fsdp,
            bytes_per_device=gather_wire,
            count=2.0 * layers_per_stage,
            label="fsdp-weight-allgather",
            overlappable=False,
            dimension="fsdp",
        ))
        rs_wire = collective_wire_bytes(
            CollectiveType.REDUCE_SCATTER, layer_weight_shard, spec.fsdp)
        critical.append(CommTask(
            kind=CollectiveType.REDUCE_SCATTER,
            group_size=spec.fsdp,
            bytes_per_device=rs_wire,
            count=1.0 * layers_per_stage,
            label="fsdp-grad-reducescatter",
            overlappable=False,
            dimension="fsdp",
        ))

    # Data parallelism: one gradient all-reduce per step. Following the
    # paper's cost model (Eq. 2), collective communication is exposed rather
    # than overlapped — only point-to-point streaming hides under compute.
    if spec.dp > 1:
        wire = collective_wire_bytes(
            CollectiveType.ALL_REDUCE, grad_shard_bytes / spec.fsdp, spec.dp)
        critical.append(CommTask(
            kind=CollectiveType.ALL_REDUCE,
            group_size=spec.dp,
            bytes_per_device=wire,
            count=1.0,
            label="dp-grad-allreduce",
            overlappable=False,
            dimension="dp",
        ))

    # TATP: stream the smaller operand between physical neighbours each round,
    # for the forward, backward, and gradient stages of every layer.
    stream_choice: Optional[StreamChoice] = None
    if spec.tatp > 1:
        layer_activation_bytes = (
            batch_shard * seq_shard * model.hidden_size * dtype_bytes)
        stream_choice = select_stream_tensor(
            layer_weight_shard, layer_activation_bytes)
        streamed = min(layer_weight_shard, layer_activation_bytes)
        wire = streamed * (spec.tatp - 1) / spec.tatp
        overlap.append(CommTask(
            kind=CollectiveType.STREAM,
            group_size=spec.tatp,
            bytes_per_device=wire,
            count=3.0 * layers_per_stage,
            label="tatp-stream",
            overlappable=True,
            dimension="tatp",
        ))

    # Pipeline parallelism: per-microbatch activation transfers at every stage
    # boundary, in forward and backward.
    if spec.pp > 1:
        boundary_bytes = (
            batch_shard / num_microbatches * seq_shard * model.hidden_size
            * dtype_bytes
        )
        critical.append(CommTask(
            kind=CollectiveType.P2P,
            group_size=2,
            bytes_per_device=boundary_bytes,
            count=2.0 * num_microbatches,
            label="pp-activation-p2p",
            overlappable=False,
            dimension="pp",
        ))

    return critical, overlap, stream_choice
