"""Parallelism specification.

A hybrid strategy is named by the degree of each constituent parallelism. The
paper writes configurations as ``(DP, TP, SP, TATP)`` tuples (Fig. 17/18),
optionally with FSDP replacing plain DP and PP appearing only on multi-wafer
systems (Fig. 19). :class:`ParallelSpec` captures all of these and validates
that the degrees multiply to the device count they are mapped onto.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple


@dataclass(frozen=True)
class ParallelSpec:
    """Degrees of each parallelism dimension.

    Attributes:
        dp: data parallelism (batch split, full replicas).
        tp: Megatron-style tensor parallelism (weight split, activation
            replication inside the group).
        sp: sequence parallelism (activation split along the sequence in the
            norm/dropout regions, paired with TP in Megatron-3).
        cp: context parallelism (attention context split along the sequence).
        fsdp: fully-sharded data parallelism (batch split + weight sharding).
        tatp: the paper's topology-aware tensor-stream parallelism degree.
        pp: pipeline parallelism (used across wafers in Fig. 19).
        sp_within_tp: Megatron-3 style sequence parallelism that reuses the TP
            group's devices (activations sharded ``tp`` ways in the norm /
            dropout regions) instead of occupying a separate SP dimension.
        zero1_optimizer: whether the FP32 optimizer state is sharded across
            the data-parallel ranks (ZeRO-1 / Megatron distributed optimizer).
            The original Megatron-1 recipe replicates it instead.
    """

    dp: int = 1
    tp: int = 1
    sp: int = 1
    cp: int = 1
    fsdp: int = 1
    tatp: int = 1
    pp: int = 1
    sp_within_tp: bool = False
    zero1_optimizer: bool = True

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 1:
                raise ValueError(f"{name} degree must be >= 1, got {value}")
        if self.sp_within_tp and self.sp > 1:
            raise ValueError(
                "sp_within_tp reuses the TP group; set sp=1 when enabling it")

    # Views -----------------------------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        """Dictionary of degree names to values."""
        return {
            "dp": self.dp,
            "tp": self.tp,
            "sp": self.sp,
            "cp": self.cp,
            "fsdp": self.fsdp,
            "tatp": self.tatp,
            "pp": self.pp,
        }

    @property
    def intra_stage_degree(self) -> int:
        """Product of all degrees except pipeline parallelism."""
        return self.dp * self.tp * self.sp * self.cp * self.fsdp * self.tatp

    @property
    def total_degree(self) -> int:
        """Product of every degree (device count the spec requires)."""
        return self.intra_stage_degree * self.pp

    @property
    def data_parallel_degree(self) -> int:
        """Combined batch-splitting degree (DP and FSDP both split the batch)."""
        return self.dp * self.fsdp

    @property
    def sequence_split_degree(self) -> int:
        """Combined sequence-splitting degree from SP and CP.

        Megatron-3 style SP (``sp_within_tp``) shards the sequence across the
        TP group, so it contributes the TP degree here.
        """
        coupled = self.tp if self.sp_within_tp else 1
        return self.sp * self.cp * coupled

    @property
    def effective_sp(self) -> int:
        """Degree over which norm-region activations are sharded."""
        if self.sp_within_tp:
            return self.tp
        return self.sp

    def label(self) -> str:
        """Compact label like ``(2,1,1,16)`` meaning (DP, TP, SP, TATP).

        Pipeline, CP and FSDP degrees are appended only when non-trivial, to
        match how the paper annotates configurations.
        """
        sp_label = f"tp-coupled" if self.sp_within_tp else str(self.sp)
        base = f"(dp={self.dp},tp={self.tp},sp={sp_label},tatp={self.tatp}"
        extras = []
        if self.cp > 1:
            extras.append(f"cp={self.cp}")
        if self.fsdp > 1:
            extras.append(f"fsdp={self.fsdp}")
        if self.pp > 1:
            extras.append(f"pp={self.pp}")
        suffix = ("," + ",".join(extras)) if extras else ""
        return base + suffix + ")"

    # Validation / manipulation -----------------------------------------------------

    def validate_for(self, num_devices: int) -> None:
        """Check that this spec exactly fills ``num_devices`` devices.

        Raises:
            ValueError: when the degree product does not match.
        """
        if self.total_degree != num_devices:
            raise ValueError(
                f"spec {self.label()} needs {self.total_degree} devices but "
                f"{num_devices} are available"
            )

    def fits(self, num_devices: int) -> bool:
        """Whether the spec's total degree divides into ``num_devices``."""
        return self.total_degree <= num_devices and num_devices % self.total_degree == 0

    def without_pipeline(self) -> "ParallelSpec":
        """The intra-stage spec (pipeline degree forced to one)."""
        return replace(self, pp=1)

    def with_degree(self, name: str, value: int) -> "ParallelSpec":
        """Return a copy with one named degree replaced."""
        if name not in self.as_dict():
            raise KeyError(f"unknown parallelism dimension '{name}'")
        return replace(self, **{name: value})

    @staticmethod
    def enumerate(
        num_devices: int,
        dimensions: Tuple[str, ...] = ("dp", "tp", "sp", "tatp"),
        max_degree_per_dim: int = 64,
    ) -> Iterator["ParallelSpec"]:
        """Enumerate every spec over ``dimensions`` whose product is ``num_devices``.

        Degrees are restricted to divisors of ``num_devices`` (power-of-two
        wafers make these the only balanced choices) — this is the search space
        the DLWS solver explores.
        """
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        divisors = [d for d in range(1, min(num_devices, max_degree_per_dim) + 1)
                    if num_devices % d == 0]

        def recurse(index: int, remaining: int, chosen: Dict[str, int]):
            if index == len(dimensions):
                if remaining == 1:
                    yield ParallelSpec(**chosen)
                return
            name = dimensions[index]
            for degree in divisors:
                if remaining % degree:
                    continue
                chosen[name] = degree
                yield from recurse(index + 1, remaining // degree, chosen)
            chosen.pop(name, None)

        yield from recurse(0, num_devices, {})
