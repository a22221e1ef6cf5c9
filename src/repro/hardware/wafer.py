"""Wafer-scale chip system object.

:class:`WaferScaleChip` binds a :class:`~repro.hardware.config.WaferConfig` to
an interconnect fabric from the topology zoo (the paper's 2D mesh by default;
see :mod:`repro.hardware.topologies`) and exposes the per-die resources
(compute, SRAM, HBM) that the simulator and the solver reason about. Fault
injection is applied here by rebuilding the topology with failed links or
dies, and by derating the compute of partially-faulty dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.hardware.config import WaferConfig, default_wafer_config
from repro.hardware.faults import FaultModel
from repro.hardware.topologies import Link, build_topology


@dataclass
class Die:
    """One compute die instance on the wafer.

    Attributes:
        die_id: flat id of the die (row-major).
        peak_flops: effective peak FLOPS after core-fault derating.
        hbm_capacity: usable HBM capacity in bytes.
        sram_capacity: usable SRAM capacity in bytes.
        healthy: whether the die participates in mapping at all.
    """

    die_id: int
    peak_flops: float
    hbm_capacity: float
    sram_capacity: float
    healthy: bool = True


class WaferScaleChip:
    """A wafer-scale chip: configuration + topology + per-die resources.

    Args:
        config: the wafer configuration (Table I values by default).
        fault_model: optional fault injection describing failed links and
            core-fault fractions per die.
        topology: optional topology spec dict (``{"name": ..., **params}``,
            see :mod:`repro.hardware.topologies`); ``None`` builds the
            default mesh fabric.
    """

    def __init__(
        self,
        config: Optional[WaferConfig] = None,
        fault_model: Optional[FaultModel] = None,
        topology: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.config = config or default_wafer_config()
        self.fault_model = fault_model or FaultModel()
        failed_links = self.fault_model.failed_links
        failed_dies = self.fault_model.dead_dies
        self.topology_spec = dict(topology) if topology is not None else None
        self.topology = build_topology(
            self.topology_spec,
            self.config.rows,
            self.config.cols,
            failed_links=failed_links,
            failed_dies=failed_dies,
        )
        self._dies = self._build_dies()

    def _build_dies(self) -> Dict[int, Die]:
        dies: Dict[int, Die] = {}
        for die_id in range(self.config.num_dies):
            healthy = die_id not in self.fault_model.dead_dies
            derate = 1.0 - self.fault_model.core_fault_fraction(die_id)
            dies[die_id] = Die(
                die_id=die_id,
                peak_flops=self.config.die.peak_flops * max(derate, 0.0),
                hbm_capacity=self.config.die.hbm.capacity,
                sram_capacity=self.config.die.sram_capacity,
                healthy=healthy,
            )
        return dies

    # Queries ------------------------------------------------------------------

    @property
    def num_dies(self) -> int:
        """Number of healthy dies available for mapping."""
        return len(self.healthy_dies())

    def die(self, die_id: int) -> Die:
        """Return the :class:`Die` record for ``die_id``."""
        try:
            return self._dies[die_id]
        except KeyError:
            raise KeyError(f"die {die_id} does not exist on this wafer") from None

    def dies(self) -> List[Die]:
        """Return all die records, healthy or not, in id order."""
        return [self._dies[die_id] for die_id in sorted(self._dies)]

    def healthy_dies(self) -> List[int]:
        """Return ids of dies that can be mapped onto."""
        return [die.die_id for die in self.dies() if die.healthy]

    def aggregate_peak_flops(self, dies: Optional[Sequence[int]] = None) -> float:
        """Sum of effective peak FLOPS over ``dies`` (default: all healthy)."""
        targets = dies if dies is not None else self.healthy_dies()
        return sum(self.die(die_id).peak_flops for die_id in targets)

    def aggregate_hbm_capacity(self, dies: Optional[Sequence[int]] = None) -> float:
        """Sum of HBM capacity over ``dies`` (default: all healthy)."""
        targets = dies if dies is not None else self.healthy_dies()
        return sum(self.die(die_id).hbm_capacity for die_id in targets)

    # Link-level helpers --------------------------------------------------------

    def link_bandwidth(self, link: Link) -> float:
        """Usable bandwidth of ``link`` after fault derating and the link's
        fabric bandwidth factor (1.0 on every default-mesh link)."""
        derate = 1.0 - self.fault_model.link_fault_fraction((link.src, link.dst))
        return self.config.d2d.bandwidth * max(derate, 0.0) * link.bandwidth_factor

    def link_transfer_time(self, link: Link, num_bytes: float) -> float:
        """Time to move ``num_bytes`` across one D2D link (latency + serial)."""
        bandwidth = self.link_bandwidth(link)
        if bandwidth <= 0:
            raise ValueError(f"link {link} has no usable bandwidth")
        return self.config.d2d.latency * link.latency_factor + num_bytes / bandwidth

    def path_transfer_time(self, path: Sequence[Link], num_bytes: float) -> float:
        """Store-and-forward transfer time along a multi-hop path."""
        if not path:
            return 0.0
        # Wormhole-style pipelining: pay per-hop latency for every hop but the
        # serialization delay only once at the slowest link. Latency factors
        # are summed before the single multiply so an all-unit-factor path
        # (the default mesh) reduces to exactly len(path) * latency.
        slowest = min(self.link_bandwidth(link) for link in path)
        if slowest <= 0:
            raise ValueError("path traverses a dead link")
        hops = sum(link.latency_factor for link in path)
        return hops * self.config.d2d.latency + num_bytes / slowest

    def describe(self) -> Dict[str, float]:
        """Return a summary dictionary of headline hardware numbers."""
        return {
            "dies": float(self.config.num_dies),
            "healthy_dies": float(self.num_dies),
            "peak_tflops": self.aggregate_peak_flops() / 1e12,
            "hbm_capacity_gb": self.aggregate_hbm_capacity() / (1024 ** 3),
            "d2d_bandwidth_tbps": self.config.d2d.bandwidth / (1024 ** 4),
        }
