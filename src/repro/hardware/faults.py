"""Fault injection for the fault-tolerance study (Fig. 20).

The paper sweeps two fault axes:

* **link faults** — a fraction of D2D links become unusable; throughput shows
  a cliff around a 35% link-fault rate because the mesh loses the contiguous
  rings TATP depends on,
* **core faults** — a fraction of compute cores inside dies fail; throughput
  degrades gracefully because TATP re-balances tensor partitions to match the
  per-die compute that remains.

:class:`FaultModel` captures both as deterministic, seedable samples so the
experiments are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set, Tuple


class FaultType(Enum):
    """Kind of hardware fault injected into the wafer."""

    LINK = "link"
    CORE = "core"
    DIE = "die"


@dataclass
class FaultModel:
    """A concrete set of injected faults.

    Attributes:
        failed_links: directed (src, dst) die pairs whose D2D link is dead.
            Both directions should normally be listed (use
            :meth:`FaultModel.sample_link_faults` to build them symmetrically).
        core_faults: fraction of failed compute cores per die id, in [0, 1].
        dead_dies: dies that are removed from the mapping entirely.
        degraded_links: per-link bandwidth derating fractions in [0, 1].
    """

    failed_links: Set[Tuple[int, int]] = field(default_factory=set)
    core_faults: Dict[int, float] = field(default_factory=dict)
    dead_dies: Set[int] = field(default_factory=set)
    degraded_links: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def core_fault_fraction(self, die_id: int) -> float:
        """Fraction of cores lost on ``die_id`` (0.0 when healthy)."""
        return min(max(self.core_faults.get(die_id, 0.0), 0.0), 1.0)

    def link_fault_fraction(self, link: Tuple[int, int]) -> float:
        """Bandwidth derating fraction for a directed link (0.0 when healthy)."""
        if link in self.failed_links:
            return 1.0
        return min(max(self.degraded_links.get(link, 0.0), 0.0), 1.0)

    # Samplers -------------------------------------------------------------------

    @classmethod
    def sample_link_faults(
        cls,
        rows: int,
        cols: int,
        fault_rate: float,
        seed: int = 0,
    ) -> "FaultModel":
        """Sample a link-fault model where ``fault_rate`` of links are dead.

        Links are sampled as undirected pairs and both directions fail
        together, matching how a physical D2D lane failure behaves.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        rng = random.Random(seed)
        undirected = _enumerate_undirected_links(rows, cols)
        num_failed = int(round(fault_rate * len(undirected)))
        failed_pairs = rng.sample(undirected, num_failed) if num_failed else []
        failed: Set[Tuple[int, int]] = set()
        for a, b in failed_pairs:
            failed.add((a, b))
            failed.add((b, a))
        return cls(failed_links=failed)

    @classmethod
    def sample_core_faults(
        cls,
        num_dies: int,
        fault_rate: float,
        seed: int = 0,
        spread: float = 0.5,
    ) -> "FaultModel":
        """Sample a core-fault model with mean per-die fault rate ``fault_rate``.

        Each die draws its own fraction around the mean so the re-balancing
        logic has something non-uniform to adapt to.

        Args:
            num_dies: number of dies on the wafer.
            fault_rate: average fraction of cores lost per die.
            seed: RNG seed for reproducibility.
            spread: relative spread of the per-die fraction around the mean.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        rng = random.Random(seed)
        core_faults: Dict[int, float] = {}
        for die in range(num_dies):
            if fault_rate == 0.0:
                continue
            low = fault_rate * (1.0 - spread)
            high = min(1.0, fault_rate * (1.0 + spread))
            core_faults[die] = rng.uniform(low, high)
        return cls(core_faults=core_faults)

    def merged_with(self, other: "FaultModel") -> "FaultModel":
        """Combine two fault models (union of faults, max of fractions)."""
        core_faults = dict(self.core_faults)
        for die, fraction in other.core_faults.items():
            core_faults[die] = max(core_faults.get(die, 0.0), fraction)
        degraded = dict(self.degraded_links)
        for link, fraction in other.degraded_links.items():
            degraded[link] = max(degraded.get(link, 0.0), fraction)
        return FaultModel(
            failed_links=set(self.failed_links) | set(other.failed_links),
            core_faults=core_faults,
            dead_dies=set(self.dead_dies) | set(other.dead_dies),
            degraded_links=degraded,
        )


def _enumerate_undirected_links(rows: int, cols: int) -> List[Tuple[int, int]]:
    """All undirected nearest-neighbour links of a rows x cols mesh."""
    links: List[Tuple[int, int]] = []
    for row in range(rows):
        for col in range(cols):
            src = row * cols + col
            if col + 1 < cols:
                links.append((src, src + 1))
            if row + 1 < rows:
                links.append((src, src + cols))
    return links


def classify_faults(model: FaultModel) -> Dict[FaultType, int]:
    """Step 1 of the paper's fault-tolerance flow: localize and classify.

    Returns a count of faults per :class:`FaultType`, which the framework uses
    to decide whether to re-balance partitions (core faults), re-route
    communication (link faults), or shrink the mapping (die faults).
    """
    return {
        FaultType.LINK: len({tuple(sorted(link)) for link in model.failed_links}),
        FaultType.CORE: sum(1 for f in model.core_faults.values() if f > 0.0),
        FaultType.DIE: len(model.dead_dies),
    }
