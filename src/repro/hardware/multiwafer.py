"""Multi-wafer systems for the scalability study (Fig. 19).

The paper scales GPT-3 175B onto 2 wafers, Grok-1 341B and Llama3 405B onto 4
wafers, and a 504B GPT-3 variant onto 6 wafers. Wafers are connected by ample
inter-wafer links (~9 TB/s per the Dojo-style numbers cited in the paper) and
pipeline parallelism is used across wafers while intra-wafer parallelism uses
the strategies explored by the solver.

The wafers of a chain are identical, so a :class:`MultiWaferSystem` holds one
:class:`~repro.hardware.wafer.WaferScaleChip` for all of them; a caller can
pass in a chip it already has, whose topology then keeps routing memos warm
across systems and single-wafer evaluations alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hardware.wafer import WaferScaleChip


@dataclass(frozen=True)
class InterWaferLink:
    """A link between two adjacent wafers in the multi-wafer chain."""

    src_wafer: int
    dst_wafer: int
    bandwidth: float
    latency: float

    def transfer_time(self, num_bytes: float) -> float:
        """Latency plus serialization for an inter-wafer transfer."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return self.latency + num_bytes / self.bandwidth


class MultiWaferSystem:
    """A chain of identical wafers connected by inter-wafer links.

    Pipeline stages are laid out along the chain: stage *i* occupies wafer
    ``i * num_wafers / pp_degree`` onwards. Activation transfers between
    consecutive pipeline stages that live on different wafers pay the
    inter-wafer link cost; stages on the same wafer use regular D2D paths.

    Args:
        num_wafers: number of wafers in the system.
        wafer: the chip every wafer of the chain is (its configuration is
            shared by every wafer); a healthy default wafer when omitted.
    """

    def __init__(
        self,
        num_wafers: int,
        wafer: Optional[WaferScaleChip] = None,
    ) -> None:
        if num_wafers <= 0:
            raise ValueError(f"num_wafers must be positive, got {num_wafers}")
        self.num_wafers = num_wafers
        self.wafer = wafer if wafer is not None else WaferScaleChip()
        self.wafer_config = self.wafer.config
        self.wafers: List[WaferScaleChip] = [self.wafer] * num_wafers
        self.links: List[InterWaferLink] = [
            InterWaferLink(
                src_wafer=index,
                dst_wafer=index + 1,
                bandwidth=self.wafer_config.inter_wafer_bandwidth,
                latency=self.wafer_config.inter_wafer_latency,
            )
            for index in range(num_wafers - 1)
        ]

    @property
    def total_dies(self) -> int:
        """Total number of dies across all wafers."""
        return sum(wafer.config.num_dies for wafer in self.wafers)

    @property
    def total_peak_flops(self) -> float:
        """Aggregate peak FLOPS of the whole system."""
        return sum(wafer.aggregate_peak_flops() for wafer in self.wafers)

    @property
    def total_hbm_capacity(self) -> float:
        """Aggregate HBM capacity of the whole system, in bytes."""
        return sum(wafer.aggregate_hbm_capacity() for wafer in self.wafers)

    def wafer_of_stage(self, stage: int, pp_degree: int) -> int:
        """Which wafer hosts pipeline stage ``stage`` of ``pp_degree`` stages.

        Stages are distributed as evenly as possible along the wafer chain.
        """
        if pp_degree <= 0:
            raise ValueError(f"pp_degree must be positive, got {pp_degree}")
        if not 0 <= stage < pp_degree:
            raise ValueError(f"stage {stage} out of range for pp_degree {pp_degree}")
        if pp_degree >= self.num_wafers:
            stages_per_wafer = pp_degree / self.num_wafers
            return min(int(stage / stages_per_wafer), self.num_wafers - 1)
        wafers_per_stage = self.num_wafers / pp_degree
        return min(int(stage * wafers_per_stage), self.num_wafers - 1)

    def stage_boundary_crosses_wafer(self, stage: int, pp_degree: int) -> bool:
        """Whether the stage->stage+1 activation transfer crosses wafers."""
        if stage + 1 >= pp_degree:
            return False
        return self.wafer_of_stage(stage, pp_degree) != self.wafer_of_stage(
            stage + 1, pp_degree
        )

    def inter_stage_transfer_time(
        self, stage: int, pp_degree: int, num_bytes: float
    ) -> float:
        """Time to ship ``num_bytes`` from ``stage`` to ``stage + 1``.

        Uses the inter-wafer link when the stages live on different wafers,
        otherwise a single intra-wafer D2D hop.
        """
        if self.stage_boundary_crosses_wafer(stage, pp_degree):
            src = self.wafer_of_stage(stage, pp_degree)
            link = self.links[min(src, len(self.links) - 1)]
            return link.transfer_time(num_bytes)
        return self.wafer_config.d2d.transfer_time(num_bytes)

    def describe(self) -> dict:
        """Summary of the headline system parameters."""
        return {
            "num_wafers": self.num_wafers,
            "total_dies": self.total_dies,
            "peak_pflops": self.total_peak_flops / 1e15,
            "hbm_capacity_tb": self.total_hbm_capacity / (1024 ** 4),
            "inter_wafer_bandwidth_tbps":
                self.wafer_config.inter_wafer_bandwidth / (1024 ** 4),
        }
