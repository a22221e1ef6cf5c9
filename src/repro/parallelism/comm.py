"""Communication-task abstractions shared by strategies and mapping engines.

A strategy analysis produces :class:`CommTask` records — "this parallel group
performs an all-reduce of X bytes per device, N times per layer". The mapping
engine turns each task into concrete link-level paths on the mesh, and the
simulator turns the paths plus volumes into time and energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class CollectiveType(Enum):
    """Kinds of communication the strategies generate."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    BROADCAST = "broadcast"
    P2P = "p2p"
    STREAM = "stream"  # TATP's per-round neighbour streaming


@dataclass(frozen=True)
class CommTask:
    """One communication requirement of a parallel execution.

    Attributes:
        kind: collective (or P2P / stream) type.
        group_size: number of logical ranks participating (the mapping engine
            assigns physical die ids).
        bytes_per_device: **wire bytes** each participating device injects into
            the network per execution of the task. Use
            :func:`collective_wire_bytes` to convert a logical buffer size into
            this quantity for the standard ring algorithms.
        count: how many times the task repeats per training step (layer counts
            are already folded in by the strategy analysis).
        label: readable description used in reports.
        overlappable: whether the task can overlap with computation (TATP's
            streaming and the DP gradient all-reduce can; Megatron's activation
            all-reduces sit on the critical path).
        dimension: which parallelism dimension generated the task ("tp",
            "dp", "tatp", ...) so ablation studies can filter.
    """

    kind: CollectiveType
    group_size: int
    bytes_per_device: float
    count: float = 1.0
    label: str = ""
    overlappable: bool = False
    dimension: str = ""

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.bytes_per_device < 0:
            raise ValueError(
                f"bytes_per_device must be non-negative, got {self.bytes_per_device}"
            )
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")

    @property
    def is_trivial(self) -> bool:
        """A task over a single device or with no payload costs nothing."""
        return self.group_size <= 1 or self.bytes_per_device == 0 or self.count == 0

    @property
    def total_bytes(self) -> float:
        """Total wire bytes injected per execution (all devices combined)."""
        if self.group_size <= 1:
            return 0.0
        return self.bytes_per_device * self.group_size


def collective_wire_bytes(
    kind: CollectiveType, buffer_bytes: float, group_size: int
) -> float:
    """Wire bytes each device sends for a collective over ``buffer_bytes``.

    Uses the standard bandwidth-optimal ring volumes:

    * all-reduce: ``2 * (p - 1) / p`` of the buffer,
    * all-gather / reduce-scatter / broadcast: ``(p - 1) / p`` of the buffer,
    * P2P / stream: exactly the buffer (sender side).
    """
    if buffer_bytes < 0:
        raise ValueError(f"buffer_bytes must be non-negative, got {buffer_bytes}")
    if group_size <= 1:
        return 0.0
    p = group_size
    if kind is CollectiveType.ALL_REDUCE:
        return 2.0 * (p - 1) / p * buffer_bytes
    if kind in (CollectiveType.ALL_GATHER, CollectiveType.REDUCE_SCATTER,
                CollectiveType.BROADCAST):
        return (p - 1) / p * buffer_bytes
    return buffer_bytes
