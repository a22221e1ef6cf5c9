"""Traffic-conscious communication optimizer (Fig. 11).

The optimizer takes the routed flows of every parallel group, finds the most
congested link, and iteratively relieves it by (a) merging duplicate flows that
carry the same data over the same link into a single multicast-style flow, and
(b) rerouting flows that cross the hot link onto detour paths over idle links.
It terminates when the maximum link load stops improving or an iteration limit
is reached — the five phases of the paper:

1. communication-pattern analysis & path initialisation (done by the caller),
2. bottleneck identification & load recording,
3. congested-path identification & iterative optimisation,
4. path merging & routing optimisation,
5. global update & termination check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.topologies import Link, MeshTopology
from repro.mapping.contention import LinkLoadMap, flows_through
from repro.mapping.routing import Flow

#: Default cap on optimisation iterations (the paper's MAX_ITER).
DEFAULT_MAX_ITERATIONS = 32


@dataclass
class OptimizationReport:
    """Summary of one optimizer run."""

    initial_max_load: float
    final_max_load: float
    iterations: int
    reroutes: int
    merges: int

    @property
    def improvement(self) -> float:
        """Relative reduction of the bottleneck load (0.0 when unchanged)."""
        if self.initial_max_load <= 0:
            return 0.0
        return 1.0 - self.final_max_load / self.initial_max_load


class TrafficOptimizer:
    """Iterative max-link-load minimiser used by TCME."""

    def __init__(
        self,
        topology: MeshTopology,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.topology = topology
        self.max_iterations = max_iterations

    def optimize(self, flows: Sequence[Flow]) -> Tuple[List[Flow], OptimizationReport]:
        """Optimize routing of ``flows`` and return (new flows, report).

        The input flows are not modified; rerouted copies replace the originals
        in the returned list.
        """
        working = list(flows)
        working = self._merge_duplicates(working)
        merges = len(flows) - len(working)

        load_map = LinkLoadMap.from_flows(working)
        initial_max = load_map.max_load()
        current_max = initial_max
        reroutes = 0
        iterations = 0

        for _ in range(self.max_iterations):
            hot_link = load_map.max_load_link()
            if hot_link is None or current_max <= 0:
                break
            iterations += 1
            improved = False
            hot_flows = sorted(
                flows_through(working, hot_link),
                key=lambda flow: flow.total_bytes,
                reverse=True,
            )
            for flow in hot_flows:
                candidate = self._reroute_candidate(flow, hot_link, load_map)
                if candidate is None:
                    continue
                new_flows = [candidate if f is flow else f for f in working]
                new_map = LinkLoadMap.from_flows(new_flows)
                if new_map.max_load() < current_max - 1e-9:
                    working = new_flows
                    load_map = new_map
                    current_max = new_map.max_load()
                    reroutes += 1
                    improved = True
                    break
            if not improved:
                break

        report = OptimizationReport(
            initial_max_load=initial_max,
            final_max_load=current_max,
            iterations=iterations,
            reroutes=reroutes,
            merges=merges,
        )
        return working, report

    # Phase 4a: merge duplicate flows ------------------------------------------------

    @staticmethod
    def _merge_duplicates(flows: Sequence[Flow]) -> List[Flow]:
        """Merge flows that carry the same task's data over the same path.

        Two flows of the same task between the same endpoints carry the same
        payload (e.g. a broadcast reaching two members through a shared
        prefix), so sending it once suffices: counts are combined by taking
        the maximum rather than the sum.
        """
        merged: Dict[Tuple, Flow] = {}
        for flow in flows:
            key = (flow.task_label, flow.src, flow.dst, flow.num_bytes,
                   flow.critical)
            existing = merged.get(key)
            if existing is None:
                merged[key] = flow
            else:
                combined = Flow(
                    src=flow.src,
                    dst=flow.dst,
                    num_bytes=flow.num_bytes,
                    count=max(existing.count, flow.count),
                    task_label=flow.task_label,
                    dimension=flow.dimension,
                    path=list(existing.path),
                    critical=flow.critical or existing.critical,
                )
                merged[key] = combined
        return list(merged.values())

    # Phase 4b: congestion-aware rerouting ---------------------------------------------

    def _reroute_candidate(
        self,
        flow: Flow,
        hot_link: Tuple[int, int],
        load_map: LinkLoadMap,
    ) -> Optional[Flow]:
        """Find a detour for ``flow`` that avoids ``hot_link``.

        Tries the alternative dimension-ordered route first (YX instead of
        XY), then a BFS path that explicitly avoids the hot link. Returns
        ``None`` when no useful detour exists (e.g. the flow is a single-hop
        neighbour transfer).
        """
        if flow.hops <= 1:
            return None
        avoid = [Link(*hot_link)]
        alternatives: List[List[Link]] = []
        try:
            yx = self.topology.yx_route(flow.src, flow.dst)
            if not any((link.src, link.dst) == hot_link for link in yx):
                alternatives.append(yx)
        except KeyError:
            pass
        detour = self.topology.shortest_path(flow.src, flow.dst, avoid_links=avoid)
        if detour is not None:
            alternatives.append(detour)
        best: Optional[List[Link]] = None
        best_cost: Optional[float] = None
        for path in alternatives:
            if not path:
                continue
            if path == flow.path:
                continue
            cost = max(
                load_map.loads.get((link.src, link.dst), 0.0) for link in path
            )
            # Mild penalty for extra hops so detours do not balloon latency.
            cost += (len(path) - flow.hops) * 1e3
            if best_cost is None or cost < best_cost:
                best, best_cost = path, cost
        if best is None:
            return None
        return flow.rerouted(best)
