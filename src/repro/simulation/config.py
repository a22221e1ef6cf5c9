"""Simulator efficiency knobs.

The analytical models are parameterised by a handful of efficiency constants
that correspond to effects the paper calls out explicitly:

* sustained matrix-engine utilisation (MFU) is well below peak,
* every kernel launch / TATP round pays a fixed scheduling overhead, so very
  fine-grained partitioning fragments the workload and loses utilisation
  ("diminishing returns via fragmented workloads"),
* D2D links only reach peak bandwidth for large transfer granularities
  ("typically tens to hundreds of megabytes"), so small per-round chunks see a
  reduced effective bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.config import MB, US


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunable constants of the analytical performance model.

    Attributes:
        base_mfu: sustained fraction of peak FLOPS for large GEMM-dominated
            workloads (model FLOPS utilisation).
        kernel_overhead: fixed per-kernel / per-round scheduling overhead in
            seconds; multiplied by the number of operator launches per step.
        operators_per_layer: launches per transformer layer (Fig. 12 shows 13
            operators; forward + backward roughly doubles it).
        link_ramp_bytes: transfer size at which a D2D link reaches half of its
            peak bandwidth; effective bandwidth is
            ``peak * size / (size + ramp)``.
        overlap_efficiency: fraction of overlappable communication that can
            actually hide under computation (scheduling is never perfect).
    """

    base_mfu: float = 0.75
    kernel_overhead: float = 1.5 * US
    operators_per_layer: int = 26
    link_ramp_bytes: float = 32.0 * MB
    overlap_efficiency: float = 0.92

    def __post_init__(self) -> None:
        if not 0.0 < self.base_mfu <= 1.0:
            raise ValueError(f"base_mfu must be in (0, 1], got {self.base_mfu}")
        if self.kernel_overhead < 0:
            raise ValueError("kernel_overhead must be non-negative")
        if self.link_ramp_bytes < 0:
            raise ValueError("link_ramp_bytes must be non-negative")
        if not 0.0 < self.overlap_efficiency <= 1.0:
            raise ValueError(
                f"overlap_efficiency must be in (0, 1], got {self.overlap_efficiency}")
