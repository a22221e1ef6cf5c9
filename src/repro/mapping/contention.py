"""Link-load accounting and bottleneck identification.

The contention model the simulator uses is load-based: every flow deposits its
per-step bytes on each link of its path; the busiest link bounds how fast the
communication phase can drain. The traffic-conscious optimizer's goal is to
minimise that maximum link load (Fig. 11's ``MaxLoadLink``).

Loads are built two ways that give bit-identical maps:

* :meth:`LinkLoadMap.from_flows` walks flow objects link by link. It is the
  reference, and it prices the flows TCME's optimizer rewrote.
* :func:`incidence_link_loads` accumulates each task's memoised link
  incidence (:class:`~repro.mapping.collectives.TaskIncidence`) into arrays.
  It replays the reference's additions per link in the same order, and
  emits the keys in the same first-touch order, which fixes the summation
  order of :meth:`LinkLoadMap.total_bytes` and :meth:`LinkLoadMap.mean_load`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.topologies import Link, MeshTopology
from repro.mapping.routing import Flow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.collectives import TaskFlows

LinkKey = Tuple[int, int]


@dataclass
class LinkLoadMap:
    """Per-link byte loads accumulated from a set of flows."""

    loads: Dict[LinkKey, float]

    @classmethod
    def from_flows(
        cls, flows: Iterable[Flow], critical_only: bool = False
    ) -> "LinkLoadMap":
        """Accumulate loads from ``flows`` (optionally only critical ones)."""
        loads: Dict[LinkKey, float] = {}
        for flow in flows:
            if critical_only and not flow.critical:
                continue
            for link in flow.path:
                key = (link.src, link.dst)
                loads[key] = loads.get(key, 0.0) + flow.total_bytes
        return cls(loads=loads)

    def max_load(self) -> float:
        """Bytes on the most congested link (0 when there is no traffic)."""
        return max(self.loads.values(), default=0.0)

    def max_load_link(self) -> Optional[LinkKey]:
        """The most congested link, or None when there is no traffic."""
        if not self.loads:
            return None
        return max(self.loads, key=self.loads.get)

    def mean_load(self) -> float:
        """Average bytes over loaded links."""
        if not self.loads:
            return 0.0
        return sum(self.loads.values()) / len(self.loads)

    def total_bytes(self) -> float:
        """Sum of bytes over all links (link-traversals, i.e. bytes x hops)."""
        return sum(self.loads.values())

    def imbalance(self) -> float:
        """Max-to-mean load ratio; 1.0 means perfectly balanced traffic."""
        mean = self.mean_load()
        if mean <= 0:
            return 1.0
        return self.max_load() / mean

    def utilization(
        self, topology: MeshTopology, window_seconds: float, bandwidth: float
    ) -> float:
        """Average utilisation of all mesh links over a time window.

        Args:
            topology: the mesh whose link count normalises the figure.
            window_seconds: duration of the execution window.
            bandwidth: per-link bandwidth in bytes/second.
        """
        if window_seconds <= 0 or bandwidth <= 0:
            return 0.0
        total_capacity = len(topology.links()) * bandwidth * window_seconds
        if total_capacity <= 0:
            return 0.0
        return min(1.0, self.total_bytes() / total_capacity)


def incidence_link_loads(
    task_flows: Iterable["TaskFlows"], link_keys: Sequence[LinkKey]
) -> Tuple[LinkLoadMap, LinkLoadMap]:
    """All and critical-only link loads of tasks, from their incidences.

    Args:
        task_flows: each task's expanded flows, in task order.
        link_keys: ``(src, dst)`` of every link id (:attr:`Topology.link_keys`).

    Returns:
        ``(loads, critical_loads)``, equal (values and key order) to
        :meth:`LinkLoadMap.from_flows` over the tasks' flows without and with
        ``critical_only``.
    """
    loads = np.zeros(len(link_keys))
    critical_loads = np.zeros(len(link_keys))
    touched: List[Sequence[int]] = []
    critical_touched: List[Sequence[int]] = []
    for flows in task_flows:
        task, incidence = flows.task, flows.incidence
        traversal_bytes = task.bytes_per_device * task.count  # a flow's total
        targets = [loads]
        touched.append(incidence.links)
        if not task.overlappable:
            targets.append(critical_loads)
            critical_touched.append(incidence.links)
        # A link traversed m times receives the bytes m times in a row, as
        # the reference adds them flow by flow; ``+= m * bytes`` would round
        # differently.
        for target in targets:
            for layer in incidence.layers:
                target[layer] += traversal_bytes
    return (_first_touch_map(loads, touched, link_keys),
            _first_touch_map(critical_loads, critical_touched, link_keys))


def _first_touch_map(loads: np.ndarray, touched: List[Sequence[int]],
                     link_keys: Sequence[LinkKey]) -> LinkLoadMap:
    """The loads of every touched link, keyed in first-touch order."""
    order = list(dict.fromkeys(chain.from_iterable(touched)))
    return LinkLoadMap(loads=dict(zip([link_keys[i] for i in order],
                                      loads[order].tolist())))


def flows_through(flows: Sequence[Flow], link: LinkKey) -> List[Flow]:
    """Flows whose path traverses ``link`` (the optimizer's ``HotPaths``)."""
    hot: List[Flow] = []
    for flow in flows:
        if any((hop.src, hop.dst) == link for hop in flow.path):
            hot.append(flow)
    return hot
