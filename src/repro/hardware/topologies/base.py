"""The fabric-agnostic :class:`Topology` base class and its link model.

Every interconnect family of the topology zoo (see
:mod:`repro.hardware.topologies`) models the same wafer: ``rows x cols``
compute dies with row-major flat ids. What a family chooses is which
directed die-to-die links exist and how each link is weighted — a
:class:`Link` carries a ``bandwidth_factor`` and a ``latency_factor``
relative to the baseline D2D link of
:class:`~repro.hardware.config.LinkConfig` (vertical TSV hops, long
backbone wires between chiplet gateways, and wraparound wires all scale
differently).

The base class owns everything that follows from the link set alone:

* link enumeration/lookup, adjacency, and healthy-die bookkeeping,
* BFS shortest paths (optionally avoiding links) and deterministic
  canonical routes (``xy_route`` / ``yx_route`` default to BFS; grid-like
  families override them with dimension-ordered routing),
* unweighted hop distances and weighted hop costs (memoised per source),
* contiguous-ring enumeration (rectangle fast path + backtracking
  Hamiltonian search) and ring hop penalties,
* near-square partitioning into die groups,
* the routing memo: a fabric's links and health are frozen at
  construction, so every family memoises the route paths (keyed by
  ``(src, dst)``), ring orderings, ring hop factors, and whole-task link
  incidences (keyed by collective shape, die groups and
  ``reorder_groups``) the mapping layer asks for
  (:mod:`repro.mapping.routing`, :mod:`repro.mapping.collectives`); links
  are numbered in canonical order (:attr:`Topology.link_ids`) so an
  incidence can be an integer array.

Families implement :meth:`Topology._link_specs` (and usually override
:meth:`hop_distance`/:meth:`collective_hop_factor` with cheaper analytic
forms) — see :mod:`repro.hardware.topologies.mesh` for the reference
implementation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

Coord = Tuple[int, int]

#: One directed link as a family yields it: (src, dst, bandwidth_factor,
#: latency_factor).
LinkSpec = Tuple[int, int, float, float]


def die_id(row: int, col: int, cols: int) -> int:
    """Convert a (row, col) coordinate to a flat die id (row-major)."""
    return row * cols + col


def die_coord(die: int, cols: int) -> Coord:
    """Convert a flat die id back to its (row, col) coordinate."""
    return divmod(die, cols)


@dataclass(frozen=True)
class Link:
    """A directed D2D link between two dies of the fabric.

    Attributes:
        src: source die id.
        dst: destination die id.
        bandwidth_factor: usable bandwidth relative to the baseline D2D
            link (1.0 for a plain nearest-neighbour mesh link).
        latency_factor: per-hop latency relative to the baseline D2D link
            (vertical TSVs and long backbone wires cost more than 1.0).
    """

    src: int
    dst: int
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0

    def reversed(self) -> "Link":
        """Return the link in the opposite direction (same weights)."""
        return Link(self.dst, self.src, self.bandwidth_factor,
                    self.latency_factor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.src}->{self.dst})"


class Topology:
    """Base class of every interconnect fabric of the topology zoo.

    Args:
        rows: number of die rows.
        cols: number of die columns.
        failed_links: optional iterable of (src, dst) pairs to mark as failed;
            both directions are removed for each pair.
        failed_dies: optional iterable of die ids that are entirely faulty.

    Class attributes (family metadata, consumed by the registry, the
    ``repro list --topologies`` table, and the generated docs):

    * ``family`` — the registered fabric name,
    * ``params`` — constructor keyword params beyond the shared geometry,
      mapped to their defaults,
    * ``link_model`` — a one-line description of the family's link set.
    """

    family: str = "abstract"
    params: Mapping[str, object] = {}
    link_model: str = "abstract"

    #: Whether the fabric's link graph is bipartite, in which case an
    #: odd-sized group can never close into a ring (the mesh's even-parity
    #: early-out). Non-bipartite families (odd torus dimensions, even
    #: express strides) must skip that shortcut.
    _bipartite: bool = True

    def __init__(
        self,
        rows: int,
        cols: int,
        failed_links: Optional[Iterable[Tuple[int, int]]] = None,
        failed_dies: Optional[Iterable[int]] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError(
                f"{self.family} dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._failed_dies = set(failed_dies or ())
        self._failed_links = set()
        for src, dst in failed_links or ():
            self._failed_links.add((src, dst))
            self._failed_links.add((dst, src))
        self._links = self._build_links()
        #: Index of each healthy link in canonical order, and the inverse.
        self.link_keys: List[Tuple[int, int]] = list(self._links)
        self.link_ids: Dict[Tuple[int, int], int] = {
            key: index for index, key in enumerate(self.link_keys)}
        self._adjacency = self._build_adjacency()
        self._hop_memo: Dict[int, Dict[int, int]] = {}
        self._cost_memo: Dict[int, Dict[int, float]] = {}
        # Routing memo, filled by the mapping layer. The link set and health
        # state never change after construction, so these are pure
        # functions of their keys: route paths by (src, dst), ring
        # orderings by die group, ring hop factors by (ordering, closed),
        # and task link incidences by (collective shape, die groups,
        # reorder_groups).
        self.path_memo: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self.ring_memo: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], bool]] = {}
        self.ring_hop_memo: Dict[Tuple[Tuple[int, ...], bool], int] = {}
        self.incidence_memo: Dict[Tuple, object] = {}

    # Construction helpers ---------------------------------------------------

    def _link_specs(self) -> Iterator[LinkSpec]:
        """Yield every directed link of the healthy full fabric.

        Families implement this as the single definition of their link set;
        fault filtering happens in :meth:`_build_links`. Yield order is the
        fabric's canonical link order (it fixes ``links()`` ordering).
        """
        raise NotImplementedError

    def _build_links(self) -> Dict[Tuple[int, int], Link]:
        links: Dict[Tuple[int, int], Link] = {}
        for src, dst, bandwidth_factor, latency_factor in self._link_specs():
            if src in self._failed_dies or dst in self._failed_dies:
                continue
            if (src, dst) in self._failed_links:
                continue
            if (src, dst) in links:
                continue
            links[(src, dst)] = Link(src, dst, bandwidth_factor,
                                     latency_factor)
        return links

    def _build_adjacency(self) -> Dict[int, List[int]]:
        adjacency: Dict[int, List[int]] = {die: [] for die in self.dies()}
        for src, dst in self._links:
            adjacency[src].append(dst)
        for neighbours in adjacency.values():
            neighbours.sort()
        return adjacency

    # Basic queries ----------------------------------------------------------

    @property
    def num_dies(self) -> int:
        """Number of healthy dies on the fabric."""
        return self.rows * self.cols - len(self._failed_dies)

    def dies(self) -> List[int]:
        """Return the ids of all healthy dies, in row-major order."""
        return [
            die
            for die in range(self.rows * self.cols)
            if die not in self._failed_dies
        ]

    def is_healthy(self, die: int) -> bool:
        """Whether ``die`` exists on the fabric and is not marked faulty."""
        return 0 <= die < self.rows * self.cols and die not in self._failed_dies

    def coord(self, die: int) -> Coord:
        """Return the (row, col) coordinate of ``die``."""
        if not 0 <= die < self.rows * self.cols:
            raise ValueError(
                f"die {die} out of range for {self.rows}x{self.cols} "
                f"{self.family}")
        return die_coord(die, self.cols)

    def die_at(self, row: int, col: int) -> int:
        """Return the die id at coordinate (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"coordinate ({row}, {col}) out of range for "
                f"{self.rows}x{self.cols} {self.family}"
            )
        return die_id(row, col, self.cols)

    def links(self) -> List[Link]:
        """Return all healthy directed links."""
        return list(self._links.values())

    def link(self, src: int, dst: int) -> Link:
        """Return the directed link from ``src`` to ``dst``.

        Raises:
            KeyError: if the dies share no link or the link has failed.
        """
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no healthy link between die {src} and die {dst}") from None

    def has_link(self, src: int, dst: int) -> bool:
        """Whether a healthy directed link exists from ``src`` to ``dst``."""
        return (src, dst) in self._links

    def neighbours(self, die: int) -> List[int]:
        """Return the healthy dies directly reachable from ``die``."""
        return list(self._adjacency.get(die, ()))

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimum number of links between two dies on this fabric.

        The base implementation is a memoised BFS over the healthy link
        set; grid-like families override it with a closed form (Manhattan
        distance on the mesh). Returns a large sentinel (``rows * cols``)
        when the dies are disconnected so ordering heuristics still rank
        reachable dies first.
        """
        self.coord(src)
        self.coord(dst)
        if src == dst:
            return 0
        distances = self._hop_memo.get(src)
        if distances is None:
            distances = self._bfs_distances(src)
            self._hop_memo[src] = distances
        return distances.get(dst, self.rows * self.cols)

    def _bfs_distances(self, src: int) -> Dict[int, int]:
        distances = {src: 0}
        frontier = [src]
        while frontier:
            next_frontier: List[int] = []
            for die in frontier:
                for neighbour in self._adjacency.get(die, ()):
                    if neighbour not in distances:
                        distances[neighbour] = distances[die] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def hop_cost(self, src: int, dst: int) -> int:
        """Weighted hop distance: cheapest latency-factor sum, ceiled.

        This is the fabric's hop model as the collective cost layer sees
        it: a vertical or backbone hop with ``latency_factor`` 2.0 counts
        like two mesh hops. On uniformly-weighted fabrics it equals
        :meth:`hop_distance` exactly (the mesh overrides it with the
        Manhattan form for that reason).
        """
        self.coord(src)
        self.coord(dst)
        if src == dst:
            return 0
        costs = self._cost_memo.get(src)
        if costs is None:
            costs = self._dijkstra_costs(src)
            self._cost_memo[src] = costs
        cost = costs.get(dst)
        if cost is None:
            return self.rows * self.cols
        return max(1, math.ceil(cost - 1e-9))

    def _dijkstra_costs(self, src: int) -> Dict[int, float]:
        costs: Dict[int, float] = {}
        queue: List[Tuple[float, int]] = [(0.0, src)]
        while queue:
            cost, die = heapq.heappop(queue)
            if die in costs:
                continue
            costs[die] = cost
            for neighbour in self._adjacency.get(die, ()):
                if neighbour in costs:
                    continue
                link = self._links[(die, neighbour)]
                heapq.heappush(queue, (cost + link.latency_factor, neighbour))
        return costs

    def are_adjacent(self, a: int, b: int) -> bool:
        """Whether dies ``a`` and ``b`` are direct fabric neighbours."""
        return (a, b) in self._links or (b, a) in self._links

    # Routing ----------------------------------------------------------------

    def xy_route(self, src: int, dst: int) -> List[Link]:
        """The fabric's canonical preferred route from ``src`` to ``dst``.

        The base implementation is a deterministic BFS shortest path
        (ascending neighbour order); mesh-like families override it with
        X-first dimension-ordered routing. Returns the list of directed
        links traversed; an empty list when ``src == dst``.
        """
        return self._canonical_route(src, dst, reverse=False)

    def yx_route(self, src: int, dst: int) -> List[Link]:
        """The fabric's canonical alternative route (traffic spreading).

        The base implementation is a BFS shortest path expanding
        neighbours in descending order, so it diverges from
        :meth:`xy_route` where the fabric offers a choice; mesh-like
        families override it with Y-first dimension-ordered routing.
        """
        return self._canonical_route(src, dst, reverse=True)

    def _canonical_route(self, src: int, dst: int, reverse: bool) -> List[Link]:
        if not self.is_healthy(src) or not self.is_healthy(dst):
            raise ValueError(f"cannot route between unhealthy dies {src} and {dst}")
        if src == dst:
            return []
        frontier = [src]
        predecessors: Dict[int, Tuple[int, Link]] = {}
        visited = {src}
        while frontier:
            next_frontier: List[int] = []
            for die in frontier:
                neighbours = self._adjacency.get(die, ())
                if reverse:
                    neighbours = list(reversed(neighbours))
                for neighbour in neighbours:
                    if neighbour in visited:
                        continue
                    visited.add(neighbour)
                    predecessors[neighbour] = (die, self._links[(die, neighbour)])
                    if neighbour == dst:
                        return self._reconstruct(predecessors, src, dst)
                    next_frontier.append(neighbour)
            frontier = next_frontier
        raise KeyError(
            f"no route between die {src} and die {dst} on this {self.family}")

    def shortest_path(
        self, src: int, dst: int, avoid_links: Optional[Sequence[Link]] = None
    ) -> Optional[List[Link]]:
        """Breadth-first shortest path that can avoid a set of links.

        Used by the traffic-conscious optimizer to find detours around
        congested or failed links. Returns ``None`` when no path exists.
        """
        if src == dst:
            return []
        avoid = {(link.src, link.dst) for link in (avoid_links or ())}
        frontier = [src]
        predecessors: Dict[int, Tuple[int, Link]] = {}
        visited = {src}
        while frontier:
            next_frontier: List[int] = []
            for die in frontier:
                for neighbour in self.neighbours(die):
                    if neighbour in visited:
                        continue
                    if (die, neighbour) in avoid:
                        continue
                    visited.add(neighbour)
                    predecessors[neighbour] = (die, self._links[(die, neighbour)])
                    if neighbour == dst:
                        return self._reconstruct(predecessors, src, dst)
                    next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    @staticmethod
    def _reconstruct(
        predecessors: Dict[int, Tuple[int, Link]], src: int, dst: int
    ) -> List[Link]:
        path: List[Link] = []
        node = dst
        while node != src:
            prev, link = predecessors[node]
            path.append(link)
            node = prev
        path.reverse()
        return path

    # Ring enumeration (used by TATP) -----------------------------------------

    def contiguous_ring(self, dies: Sequence[int]) -> Optional[List[int]]:
        """Order ``dies`` into a physical ring of adjacent dies, if one exists.

        A physical ring is a Hamiltonian cycle on the induced subgraph where
        consecutive dies (and the last/first pair) are fabric neighbours.
        Groups of two adjacent dies are treated as a degenerate ring
        (ping-pong).

        Returns the ring ordering or ``None`` if the group cannot form one.
        """
        group = list(dict.fromkeys(dies))
        if len(group) != len(dies):
            raise ValueError("die group contains duplicates")
        for die in group:
            if not self.is_healthy(die):
                return None
        if len(group) == 1:
            return group
        if len(group) == 2:
            return group if self.are_adjacent(group[0], group[1]) else None
        # Rings on a bipartite fabric need an even number of members.
        if self._bipartite and len(group) % 2 == 1:
            return None
        rectangle = self._rectangular_ring(group)
        if rectangle is not None:
            return rectangle
        return self._hamiltonian_cycle(group)

    def _rectangular_ring(self, group: Sequence[int]) -> Optional[List[int]]:
        """Fast path: a full r x c rectangle of grid-adjacent dies rings.

        The boustrophedon cycle is verified against the fabric's real
        adjacency before being returned, so families whose rectangles are
        not internally grid-linked (stacked decks, chiplet boundaries)
        safely fall through to the Hamiltonian search.
        """
        coords = sorted(self.coord(die) for die in group)
        rows = sorted({row for row, _ in coords})
        cols = sorted({col for _, col in coords})
        if rows != list(range(rows[0], rows[-1] + 1)):
            return None
        if cols != list(range(cols[0], cols[-1] + 1)):
            return None
        if len(rows) * len(cols) != len(group):
            return None
        expected = {(row, col) for row in rows for col in cols}
        if set(coords) != expected:
            return None
        if len(rows) == 1 or len(cols) == 1:
            # A straight line of >2 dies cannot close into a cycle (a torus
            # wraparound line can; the torus overrides this hook).
            return self._line_ring(rows, cols)
        ring_coords = self._boustrophedon_cycle(rows, cols)
        ring = [self.die_at(row, col) for row, col in ring_coords]
        if not self._is_ring(ring):
            return None
        return ring

    def _line_ring(self, rows: List[int], cols: List[int]) -> Optional[List[int]]:
        """Ring ordering for a full straight-line group, when the fabric
        closes lines into cycles (wraparound); ``None`` otherwise."""
        return None

    @staticmethod
    def _boustrophedon_cycle(rows: List[int], cols: List[int]) -> List[Coord]:
        """Build a cycle covering a rectangle: snake down inner columns, return
        up the first column."""
        first_col = cols[0]
        other_cols = cols[1:]
        cycle: List[Coord] = []
        for index, row in enumerate(rows):
            ordered = other_cols if index % 2 == 0 else list(reversed(other_cols))
            for col in ordered:
                cycle.append((row, col))
        for row in reversed(rows):
            cycle.append((row, first_col))
        return cycle

    def _hamiltonian_cycle(self, group: Sequence[int]) -> Optional[List[int]]:
        """Backtracking Hamiltonian-cycle search for small irregular groups."""
        group_set = set(group)
        if len(group) > 16:
            # Exhaustive search would be too slow; rely on the rectangle fast
            # path for large groups (which covers the mappings TEMP generates).
            return None
        start = group[0]
        path = [start]
        used = {start}

        def backtrack() -> Optional[List[int]]:
            if len(path) == len(group):
                if self.are_adjacent(path[-1], start):
                    return list(path)
                return None
            for neighbour in self.neighbours(path[-1]):
                if neighbour in group_set and neighbour not in used:
                    used.add(neighbour)
                    path.append(neighbour)
                    result = backtrack()
                    if result is not None:
                        return result
                    path.pop()
                    used.remove(neighbour)
            return None

        return backtrack()

    def _is_ring(self, ordering: Sequence[int]) -> bool:
        if len(ordering) < 3:
            return False
        pairs = list(zip(ordering, list(ordering[1:]) + [ordering[0]]))
        return all(self.are_adjacent(a, b) for a, b in pairs)

    def _ring_step_cost(self, ring: Sequence[int]) -> int:
        """Worst per-step cost of a contiguous ring (1 on uniform fabrics).

        A ring whose steps traverse weighted links (vertical TSVs,
        backbone wires) pays the worst link's latency factor per logical
        step even though every step is a single physical hop.
        """
        worst = 1.0
        pairs = zip(ring, list(ring[1:]) + [ring[0]])
        for a, b in pairs:
            link = self._links.get((a, b)) or self._links.get((b, a))
            if link is not None:
                worst = max(worst, link.latency_factor)
        return max(1, math.ceil(worst - 1e-9))

    def ring_penalty_hops(self, dies: Sequence[int]) -> int:
        """Worst-case hop cost needed to close a logical ring over ``dies``.

        A contiguous physical ring over uniform links yields 1 (all
        transfers are one baseline hop); weighted ring steps pay the worst
        link's latency factor. A non-contiguous group pays the longest hop
        cost between logical neighbours — the tail-latency effect of
        Fig. 5(a).
        """
        if len(dies) <= 1:
            return 0
        ring = self.contiguous_ring(dies)
        if ring is not None:
            return self._ring_step_cost(ring)
        ordering = list(dies)
        pairs = list(zip(ordering, ordering[1:] + [ordering[0]]))
        return max(self.hop_cost(a, b) for a, b in pairs)

    # Analytical hop model -----------------------------------------------------

    def collective_hop_factor(self) -> int:
        """First-order physical hops per logical ring step of this fabric.

        This is the fabric's hop model as the *analytical* cost layer
        (:class:`repro.costmodel.tables.CostTables`) sees it, before any
        concrete mapping exists: the worst ring penalty over the fabric's
        canonical near-square partition. Uniform grid fabrics probe to 1
        (the seed cost model's value); stacked and hierarchical fabrics
        probe higher because some canonical tiles cannot ring without
        crossing weighted links.
        """
        size = min(4, self.num_dies)
        if size <= 1:
            return 1
        try:
            groups = self.partition_into_groups(size)
        except ValueError:
            return 1
        worst = 1
        for group in groups:
            worst = max(worst, self.ring_penalty_hops(group))
        return worst

    # Grouping helpers ---------------------------------------------------------

    def partition_into_groups(self, group_size: int) -> List[List[int]]:
        """Partition the fabric into contiguous die groups of ``group_size``.

        Groups are carved as near-square rectangles when possible (so that they
        admit physical rings on grid-like fabrics), falling back to row-major
        slices. Faulty dies are skipped. This mirrors the die-allocation
        strategy of Fig. 7(a).
        """
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        dies = self.dies()
        if group_size > len(dies):
            raise ValueError(
                f"group_size {group_size} exceeds healthy die count {len(dies)}"
            )
        shape = self._best_group_shape(group_size)
        if shape is not None and not self._failed_dies:
            return self._tile_rectangles(shape, group_size)
        # Fallback: simple row-major chunks of healthy dies.
        return [
            dies[index: index + group_size]
            for index in range(0, len(dies) - group_size + 1, group_size)
        ]

    def _best_group_shape(self, group_size: int) -> Optional[Tuple[int, int]]:
        best: Optional[Tuple[int, int]] = None
        best_aspect = None
        for height in range(1, group_size + 1):
            if group_size % height:
                continue
            width = group_size // height
            if height > self.rows or width > self.cols:
                continue
            if self.rows % height or self.cols % width:
                continue
            aspect = abs(height - width)
            if best_aspect is None or aspect < best_aspect:
                best, best_aspect = (height, width), aspect
        return best

    def _tile_rectangles(
        self, shape: Tuple[int, int], group_size: int
    ) -> List[List[int]]:
        height, width = shape
        groups: List[List[int]] = []
        for row0 in range(0, self.rows, height):
            for col0 in range(0, self.cols, width):
                group = [
                    self.die_at(row, col)
                    for row in range(row0, row0 + height)
                    for col in range(col0, col0 + width)
                ]
                if len(group) == group_size:
                    groups.append(group)
        return groups

    # Family metadata ----------------------------------------------------------

    @classmethod
    def check_geometry(cls, rows: int, cols: int,
                       params: Mapping[str, object]) -> None:
        """Validate family params against a die grid without building links.

        Raises:
            ValueError: when the params cannot describe a ``rows x cols``
                fabric (bad divisibility, out-of-range values, ...).
        """
        if rows < 1 or cols < 1:
            raise ValueError(
                f"{cls.family} dimensions must be positive, got {rows}x{cols}")

    def describe(self) -> Dict[str, object]:
        """Plain-JSON summary of this fabric instance."""
        return {
            "family": self.family,
            "rows": self.rows,
            "cols": self.cols,
            "dies": self.num_dies,
            "links": len(self._links),
            "collective_hop_factor": self.collective_hop_factor(),
        }
