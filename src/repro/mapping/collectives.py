"""Expansion of communication tasks into link-level flows.

Every :class:`~repro.parallelism.comm.CommTask` is expanded over each of its
concrete die groups:

* **ring collectives** (all-reduce, all-gather, reduce-scatter, broadcast) —
  flows between consecutive members of the group's ring ordering. When the
  group admits a contiguous physical ring (see
  :meth:`Topology.contiguous_ring`), every flow is one hop; otherwise the
  flows follow multi-hop routes and the hop factor records the tail-latency
  penalty.
* **P2P** — a single flow between the two members.
* **TATP streams** — bidirectional neighbour flows along the group's chain
  ordering (Algorithm 1 only ever sends one hop along the chain).

Hop factors are measured with :meth:`Topology.hop_cost` — the fabric's
weighted hop model — so a chain step crossing, say, a vertical TSV or a
chiplet backbone wire is charged its latency factor. On the default mesh
``hop_cost`` equals the Manhattan hop distance, keeping the seed behaviour
bit-identical.

Routes depend on a task's collective shape (the four ring collectives share
one), its die groups and whether the groups are reordered, never on its
bytes. So :func:`expand_task` memoises one :class:`TaskIncidence` per
``(shape, groups, reorder_groups)`` key on the topology: the routes, the hop
factor, and the distinct links the routes traverse (first-touch order) with
their multiplicities, from which
:func:`~repro.mapping.contention.incidence_link_loads` accumulates link loads
as arrays. The flows it returns are a :class:`TaskFlows` view that builds
:class:`~repro.mapping.routing.Flow` objects only when iterated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.hardware.topologies import Link, Topology
from repro.mapping.routing import Flow, route_flow
from repro.parallelism.comm import CollectiveType, CommTask

#: One routed flow of an incidence: (src, dst, path).
Route = Tuple[int, int, Tuple[Link, ...]]


@dataclass(frozen=True)
class TaskIncidence:
    """What a task shape over its die groups puts on the fabric.

    Attributes:
        routes: ``(src, dst, path)`` of every flow, in expansion order.
        hop_factor: worst hop factor over the groups (0 without flows).
        links: ids (:attr:`Topology.link_ids`) of the distinct links the
            routes traverse, in first-touch order.
        counts: how many times the routes traverse each of ``links``.
        layers: read-only arrays ``links[counts > k]`` for every
            ``k < max(counts)``: the links that receive a task's bytes a
            ``k + 1``-th time.
    """

    routes: Tuple[Route, ...]
    hop_factor: int
    links: Tuple[int, ...]
    counts: Tuple[int, ...]
    layers: Tuple[np.ndarray, ...]

    @classmethod
    def from_flows(cls, flows: Sequence[Flow], hop_factor: int,
                   topology: Topology) -> "TaskIncidence":
        """The incidence of routed ``flows`` on ``topology``."""
        touches: Dict[int, int] = {}
        for flow in flows:
            for link in flow.path:
                index = topology.link_ids[(link.src, link.dst)]
                touches[index] = touches.get(index, 0) + 1
        links = np.array(list(touches), dtype=np.intp)
        counts = np.array(list(touches.values()), dtype=np.intp)
        layers = tuple(links[counts > k]
                       for k in range(int(counts.max(initial=0))))
        for layer in layers:
            layer.flags.writeable = False
        return cls(
            routes=tuple((flow.src, flow.dst, tuple(flow.path))
                         for flow in flows),
            hop_factor=hop_factor,
            links=tuple(touches),
            counts=tuple(touches.values()),
            layers=layers,
        )


class TaskFlows(Sequence[Flow]):
    """The flows of one task, built from its memoised incidence on access.

    ``len()`` is free; every access builds fresh :class:`Flow` objects with
    their own path lists, so callers may mutate them.
    """

    __slots__ = ("task", "incidence")

    def __init__(self, task: CommTask, incidence: TaskIncidence) -> None:
        self.task = task
        self.incidence = incidence

    def __len__(self) -> int:
        return len(self.incidence.routes)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._flow(route) for route in self.incidence.routes[index]]
        return self._flow(self.incidence.routes[index])

    def __iter__(self) -> Iterator[Flow]:
        return map(self._flow, self.incidence.routes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TaskFlows, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def _flow(self, route: Route) -> Flow:
        src, dst, path = route
        task = self.task
        return Flow(
            src=src,
            dst=dst,
            num_bytes=task.bytes_per_device,
            count=task.count,
            task_label=task.label,
            dimension=task.dimension,
            path=list(path),
            critical=not task.overlappable,
        )


def order_group_for_ring(
    topology: Topology, group: Sequence[int]
) -> Tuple[List[int], bool]:
    """Order a die group for ring communication.

    Returns the ordering plus a flag saying whether it is a contiguous
    physical ring (every consecutive pair, including the wrap-around, is one
    hop apart). Non-ring groups fall back to a nearest-neighbour chain
    ordering that keeps logical neighbours as physically close as possible.
    The answer is memoised on the topology; the caller gets its own list.
    """
    members = list(group)
    if len(members) <= 1:
        return members, True
    key = tuple(members)
    cached = topology.ring_memo.get(key)
    if cached is None:
        ring = topology.contiguous_ring(members)
        cached = ((tuple(ring), True) if ring is not None
                  else (tuple(_greedy_chain(topology, members)), False))
        topology.ring_memo[key] = cached
    return list(cached[0]), cached[1]


def _greedy_chain(topology: Topology, members: Sequence[int]) -> List[int]:
    """Greedy nearest-neighbour ordering of a die group."""
    remaining = list(members)
    chain = [remaining.pop(0)]
    while remaining:
        last = chain[-1]
        nearest = min(remaining, key=lambda die: topology.hop_cost(last, die))
        remaining.remove(nearest)
        chain.append(nearest)
    return chain


def ring_hop_factor(
    topology: Topology, ordering: Sequence[int], closed: bool
) -> int:
    """Worst weighted hop cost between logically adjacent members of an
    ordering (see :meth:`Topology.hop_cost`)."""
    if len(ordering) <= 1:
        return 0
    key = (tuple(ordering), closed)
    worst = topology.ring_hop_memo.get(key)
    if worst is None:
        pairs = list(zip(ordering, list(ordering[1:])))
        if closed:
            pairs.append((ordering[-1], ordering[0]))
        worst = max(topology.hop_cost(a, b) for a, b in pairs)
        topology.ring_hop_memo[key] = worst
    return worst


def expand_task(
    task: CommTask,
    groups: Sequence[Sequence[int]],
    topology: Topology,
    reorder_groups: bool = True,
) -> Tuple[Sequence[Flow], int]:
    """Expand ``task`` over its die groups into routed flows.

    Args:
        task: the communication task.
        groups: the concrete die groups realising the task (one entry per
            parallel group of the task's dimension).
        topology: the wafer fabric used for routing.
        reorder_groups: whether to reorder each group into a physical ring /
            nearest-neighbour chain before expanding (topology-aware mappers
            do; the naive SMap keeps the logical order it was given).

    Returns:
        ``(flows, hop_factor)`` where ``flows`` is a :class:`TaskFlows` view
        (``[]`` for a trivial task) and ``hop_factor`` is the worst physical
        hop distance any logical step of the task incurs across all groups
        (1 for perfectly contiguous mappings; >1 signals tail latency). The
        routes are memoised on ``topology`` per (collective shape, groups,
        ``reorder_groups``).
    """
    if task.is_trivial:
        return [], 0
    key = (_SHAPES.get(task.kind, "ring"), tuple(map(tuple, groups)),
           reorder_groups)
    incidence = topology.incidence_memo.get(key)
    if incidence is None:
        flows, hop_factor = _expand_groups(
            task, groups, topology, reorder_groups)
        incidence = TaskIncidence.from_flows(flows, hop_factor, topology)
        topology.incidence_memo[key] = incidence
    return TaskFlows(task, incidence), incidence.hop_factor


#: Collective shape of the memo key; every other kind routes as a ring.
_SHAPES = {CollectiveType.P2P: "p2p", CollectiveType.STREAM: "stream"}


def _expand_groups(
    task: CommTask,
    groups: Sequence[Sequence[int]],
    topology: Topology,
    reorder_groups: bool,
) -> Tuple[List[Flow], int]:
    """Route ``task`` over every group: the flows and the worst hop factor."""
    flows: List[Flow] = []
    worst_hop = 0
    for group in groups:
        members = [die for die in group]
        if len(members) <= 1:
            continue
        if task.kind is CollectiveType.P2P:
            group_flows, hops = _expand_p2p(task, members, topology)
        elif task.kind is CollectiveType.STREAM:
            group_flows, hops = _expand_stream(
                task, members, topology, reorder_groups)
        else:
            group_flows, hops = _expand_ring_collective(
                task, members, topology, reorder_groups)
        flows.extend(group_flows)
        worst_hop = max(worst_hop, hops)
    return flows, worst_hop


def _expand_ring_collective(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    if reorder_groups:
        ordering, is_ring = order_group_for_ring(topology, members)
    else:
        ordering, is_ring = list(members), False
    hop_factor = ring_hop_factor(topology, ordering, closed=True)
    flows: List[Flow] = []
    pairs = list(zip(ordering, list(ordering[1:]) + [ordering[0]]))
    for src, dst in pairs:
        flows.append(route_flow(
            topology, src, dst,
            num_bytes=task.bytes_per_device,
            count=task.count,
            task_label=task.label,
            dimension=task.dimension,
            critical=not task.overlappable,
        ))
    return flows, max(hop_factor, 1)


def _expand_p2p(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
) -> Tuple[List[Flow], int]:
    flows: List[Flow] = []
    worst = 1
    for src, dst in zip(members, members[1:]):
        flow = route_flow(
            topology, src, dst,
            num_bytes=task.bytes_per_device,
            count=task.count,
            task_label=task.label,
            dimension=task.dimension,
            critical=not task.overlappable,
        )
        flows.append(flow)
        worst = max(worst, max(flow.hops, 1))
    return flows, worst


def _expand_stream(
    task: CommTask,
    members: Sequence[int],
    topology: Topology,
    reorder_groups: bool = True,
) -> Tuple[List[Flow], int]:
    """TATP streaming: bidirectional flows between chain neighbours."""
    if reorder_groups:
        ordering, _ = order_group_for_ring(topology, members)
    else:
        ordering = list(members)
    # The bidirectional orchestration only needs a chain, not a closed ring.
    chain_pairs = list(zip(ordering, ordering[1:]))
    hop_factor = 1
    if chain_pairs:
        hop_factor = ring_hop_factor(topology, ordering, closed=False)
    flows: List[Flow] = []
    for src, dst in chain_pairs:
        for a, b in ((src, dst), (dst, src)):
            flows.append(route_flow(
                topology, a, b,
                num_bytes=task.bytes_per_device,
                count=task.count,
                task_label=task.label,
                dimension=task.dimension,
                critical=not task.overlappable,
            ))
    return flows, max(hop_factor, 1)
