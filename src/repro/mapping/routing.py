"""Link-level flows and their routes on the wafer fabric.

A :class:`Flow` is the unit the contention analysis works with: "this many
bytes travel from die A to die B along this path, `count` times per training
step". Collective expansion (:mod:`repro.mapping.collectives`) produces flows;
the traffic-conscious optimizer may later reroute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hardware.topologies import Link, Topology


@dataclass
class Flow:
    """A routed point-to-point traffic component.

    Attributes:
        src: source die id.
        dst: destination die id.
        num_bytes: bytes carried per execution.
        count: executions per training step.
        task_label: label of the communication task this flow belongs to.
        dimension: parallelism dimension that generated the traffic.
        path: the directed links the flow traverses (empty when src == dst).
        critical: whether the parent task sits on the critical path (False for
            overlappable traffic such as TATP streams).
    """

    src: int
    dst: int
    num_bytes: float
    count: float = 1.0
    task_label: str = ""
    dimension: str = ""
    path: List[Link] = field(default_factory=list)
    critical: bool = True

    @property
    def total_bytes(self) -> float:
        """Bytes per step contributed by this flow."""
        return self.num_bytes * self.count

    @property
    def hops(self) -> int:
        """Number of links the flow traverses."""
        return len(self.path)

    def rerouted(self, path: List[Link]) -> "Flow":
        """Return a copy of the flow following a different path."""
        if path and (path[0].src != self.src or path[-1].dst != self.dst):
            raise ValueError(
                f"path endpoints {path[0].src}->{path[-1].dst} do not match "
                f"flow {self.src}->{self.dst}")
        clone = Flow(
            src=self.src,
            dst=self.dst,
            num_bytes=self.num_bytes,
            count=self.count,
            task_label=self.task_label,
            dimension=self.dimension,
            path=list(path),
            critical=self.critical,
        )
        return clone


def route_flow(
    topology: Topology,
    src: int,
    dst: int,
    num_bytes: float,
    count: float = 1.0,
    task_label: str = "",
    dimension: str = "",
    critical: bool = True,
) -> Flow:
    """Create a flow following the fabric's canonical (XY) route.

    On mesh-like fabrics the canonical routes are dimension-ordered; other
    families route by deterministic BFS. Falls back to a BFS shortest path
    when the canonical route is blocked by failed links. Paths are memoised
    on the topology by ``(src, dst)``; the flow gets its own copy.
    """
    path: List[Link] = []
    if src != dst:
        key = (src, dst)
        cached = topology.path_memo.get(key)
        if cached is None:
            try:
                found = topology.xy_route(src, dst)
            except KeyError:
                found = topology.shortest_path(src, dst)
                if found is None:
                    raise ValueError(
                        f"no route between die {src} and die {dst} "
                        "(too many failed links)") from None
            cached = topology.path_memo[key] = tuple(found)
        path = list(cached)
    return Flow(
        src=src,
        dst=dst,
        num_bytes=num_bytes,
        count=count,
        task_label=task_label,
        dimension=dimension,
        path=path,
        critical=critical,
    )
