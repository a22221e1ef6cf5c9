"""Hardware configuration dataclasses.

The numbers mirror Table I of the paper ("Wafer Scale Chip Configuration
Parameters") and the die/wafer geometry of Fig. 3:

* a wafer integrates a 4x8 (evaluation) or 6x8 (Fig. 3) array of compute dies,
* each logic die occupies ~500 mm^2, holds 80 MB of SRAM, runs at 2 GHz, and
  delivers 1800 TFLOPS at 2 TFLOPS/W,
* each die attaches HBM stacks totalling 72 GB at 1 TB/s, 100 ns, 6.0 pJ/bit,
* die-to-die (D2D) links provide 4 TB/s at 200 ns and 5.0 pJ/bit and are only
  available between physically adjacent dies (2D mesh).

All bandwidth values are stored in **bytes per second**, latencies in
**seconds**, energies in **joules per byte**, and capacities in **bytes**, so
that the simulation layer never has to guess units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

# Unit helpers ---------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

GHZ = 1.0e9
NS = 1.0e-9
US = 1.0e-6
MS = 1.0e-3

TFLOPS = 1.0e12
PJ = 1.0e-12

#: Bits per byte, used when converting pJ/bit energy figures to J/byte.
BITS_PER_BYTE = 8


@dataclass(frozen=True)
class LinkConfig:
    """Configuration of a die-to-die (D2D) interconnect link.

    Table I quotes 4 TB/s of D2D interconnect per die; a die on the mesh has
    up to four neighbours, so each directed neighbour link sustains 1 TB/s.
    ``bandwidth`` here is the **per-direction, per-neighbour** figure the
    routing and contention models consume; ``per_die_bandwidth`` recovers the
    Table I aggregate.

    Attributes:
        bandwidth: sustained bandwidth of one directed neighbour link in
            bytes/second.
        latency: fixed per-transfer latency in seconds (serialization excluded).
        energy_per_byte: energy cost in joules per byte transferred.
        max_reach_mm: maximum physical reach before signal-integrity limits
            force forward error correction; the paper cites 50 mm.
        fec_latency: extra latency in seconds when a link exceeds
            ``max_reach_mm`` and needs FEC (the paper cites 210 ns).
        links_per_die: neighbour links contributing to the per-die aggregate.
    """

    bandwidth: float = 1 * TB
    latency: float = 200 * NS
    energy_per_byte: float = 5.0 * PJ * BITS_PER_BYTE
    max_reach_mm: float = 50.0
    fec_latency: float = 210 * NS
    links_per_die: int = 4

    @property
    def per_die_bandwidth(self) -> float:
        """Aggregate D2D bandwidth per die (the 4 TB/s of Table I)."""
        return self.bandwidth * self.links_per_die

    def transfer_time(self, num_bytes: float) -> float:
        """Latency plus serialization time for ``num_bytes`` on this link."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return self.latency + num_bytes / self.bandwidth


@dataclass(frozen=True)
class HBMConfig:
    """Configuration of the HBM stack(s) attached to one compute die."""

    capacity: float = 72 * GB
    bandwidth: float = 1 * TB
    latency: float = 100 * NS
    energy_per_byte: float = 6.0 * PJ * BITS_PER_BYTE
    die_area_mm2: float = 210.0

    def access_time(self, num_bytes: float) -> float:
        """Latency plus streaming time for ``num_bytes`` of HBM traffic."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return self.latency + num_bytes / self.bandwidth


@dataclass(frozen=True)
class ComputeDieConfig:
    """Configuration of one logic (compute) die on the wafer."""

    area_mm2: float = 500.0
    width_mm: float = 33.25
    height_mm: float = 24.99
    sram_capacity: float = 80 * MB
    frequency: float = 2.0 * GHZ
    peak_flops: float = 1800 * TFLOPS
    flops_per_watt: float = 2 * TFLOPS
    core_array: tuple = (8, 8)
    hbm: HBMConfig = field(default_factory=HBMConfig)


@dataclass(frozen=True)
class WaferConfig:
    """Top-level configuration of a wafer-scale chip.

    The evaluation section of the paper uses a 4x8 array of dies; Fig. 3 shows
    a 6x8 array on a 215 mm x 215 mm wafer. Both are expressible here.
    """

    rows: int = 4
    cols: int = 8
    die: ComputeDieConfig = field(default_factory=ComputeDieConfig)
    d2d: LinkConfig = field(default_factory=LinkConfig)
    wafer_side_mm: float = 215.0
    io_bandwidth: float = 4 * TB
    inter_wafer_bandwidth: float = 9 * TB
    inter_wafer_latency: float = 1 * US

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(
                f"Wafer die grid must be positive, got {self.rows}x{self.cols}"
            )

    @property
    def num_dies(self) -> int:
        """Total number of compute dies on the wafer."""
        return self.rows * self.cols

    @property
    def total_hbm_capacity(self) -> float:
        """Aggregate HBM capacity across all dies, in bytes."""
        return self.num_dies * self.die.hbm.capacity

    @property
    def total_peak_flops(self) -> float:
        """Aggregate peak compute throughput across all dies."""
        return self.num_dies * self.die.peak_flops


@dataclass(frozen=True)
class GPUDeviceConfig:
    """Configuration of one GPU in the comparator cluster (A100-class)."""

    peak_flops: float = 312 * TFLOPS
    memory_capacity: float = 80 * GB
    memory_bandwidth: float = 2.0 * TB
    nvlink_bandwidth: float = 600 * GB
    nvlink_latency: float = 2 * US
    power_watts: float = 400.0
    energy_per_byte_link: float = 20.0 * PJ * BITS_PER_BYTE


@dataclass(frozen=True)
class GPUClusterConfig:
    """Configuration of a multi-node GPU cluster (Fig. 15 comparator).

    The paper configures 4 nodes x 8 A100 GPUs so that the aggregate FP16 peak
    matches a 32-die WSC; intra-node traffic uses NVLink/NVSwitch and
    inter-node traffic uses InfiniBand.
    """

    num_nodes: int = 4
    gpus_per_node: int = 8
    device: GPUDeviceConfig = field(default_factory=GPUDeviceConfig)
    internode_bandwidth: float = 200 * GB
    internode_latency: float = 5 * US

    @property
    def num_devices(self) -> int:
        """Total number of GPUs in the cluster."""
        return self.num_nodes * self.gpus_per_node

    @property
    def total_peak_flops(self) -> float:
        """Aggregate peak FLOPS of the cluster."""
        return self.num_devices * self.device.peak_flops


def default_wafer_config(
    rows: int = 4,
    cols: int = 8,
    d2d_bandwidth: Optional[float] = None,
    hbm_capacity: Optional[float] = None,
) -> WaferConfig:
    """Build the evaluation wafer configuration of the paper (Table I).

    Args:
        rows: number of die rows (the paper evaluates a 4x8 wafer).
        cols: number of die columns.
        d2d_bandwidth: optional override of the D2D bandwidth in bytes/s.
        hbm_capacity: optional override of the per-die HBM capacity in bytes.

    Returns:
        A fully-populated :class:`WaferConfig`.
    """
    d2d = LinkConfig()
    if d2d_bandwidth is not None:
        d2d = replace(d2d, bandwidth=d2d_bandwidth)
    die = ComputeDieConfig()
    if hbm_capacity is not None:
        die = replace(die, hbm=replace(die.hbm, capacity=hbm_capacity))
    return WaferConfig(rows=rows, cols=cols, die=die, d2d=d2d)
