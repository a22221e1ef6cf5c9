"""Hierarchical chiplet fabric: dense local meshes bridged by gateways.

The die grid is partitioned into ``chiplet_rows x chiplet_cols`` tiles
("chiplets"). Within a chiplet, dies form an ordinary unit-cost mesh.
Between chiplets there are no die-level links: traffic crosses on a
sparse backbone that connects designated *gateway* dies of adjacent
chiplets (1 or 2 gateways per chiplet, at the chiplet's local (0, 0)
and, with two gateways, local (h-1, w-1) corners). Backbone wires are
long, so they carry their own bandwidth/latency factors.

This is the Garnet-style hierarchical-chiplet pattern: cheap local hops,
expensive weighted escapes, and gateway indirection that makes most
cross-chiplet die groups unable to form physical rings — which is
exactly what differentiates its collective costs from the flat mesh.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Mapping, Tuple

from repro.hardware.topologies.base import LinkSpec, Topology, die_id


class ChipletTopology(Topology):
    """Chiplet tiles of mesh dies joined by gateway backbone links.

    Args:
        rows, cols, failed_links, failed_dies: as the base class; ``rows``
            must divide by ``chiplet_rows`` and ``cols`` by ``chiplet_cols``.
        chiplet_rows: number of chiplet tiles along the row dimension.
        chiplet_cols: number of chiplet tiles along the column dimension.
        gateways: gateway dies per chiplet (1 or 2).
        backbone_bandwidth_factor: bandwidth of a backbone link relative to
            an intra-chiplet link.
        backbone_latency_factor: per-hop latency of a backbone link relative
            to an intra-chiplet link.
    """

    family = "chiplet"
    params = {
        "chiplet_rows": 2,
        "chiplet_cols": 2,
        "gateways": 2,
        "backbone_bandwidth_factor": 0.5,
        "backbone_latency_factor": 2.0,
    }
    link_model = ("per-chiplet mesh links; adjacent chiplets joined only "
                  "through gateway dies over weighted backbone links")

    #: Gateway indirection creates odd cycles (mesh path + backbone
    #: shortcut), so the even-size ring shortcut does not apply.
    _bipartite = False

    def __init__(self, rows, cols, failed_links=None, failed_dies=None, *,
                 chiplet_rows: int = 2, chiplet_cols: int = 2,
                 gateways: int = 2,
                 backbone_bandwidth_factor: float = 0.5,
                 backbone_latency_factor: float = 2.0) -> None:
        self.check_geometry(rows, cols, {
            "chiplet_rows": chiplet_rows,
            "chiplet_cols": chiplet_cols,
            "gateways": gateways,
            "backbone_bandwidth_factor": backbone_bandwidth_factor,
            "backbone_latency_factor": backbone_latency_factor,
        })
        self.chiplet_rows = int(chiplet_rows)
        self.chiplet_cols = int(chiplet_cols)
        self.gateways = int(gateways)
        self.tile_rows = rows // self.chiplet_rows
        self.tile_cols = cols // self.chiplet_cols
        self.backbone_bandwidth_factor = float(backbone_bandwidth_factor)
        self.backbone_latency_factor = float(backbone_latency_factor)
        super().__init__(rows, cols, failed_links, failed_dies)

    @classmethod
    def check_geometry(cls, rows: int, cols: int,
                       params: Mapping[str, object]) -> None:
        super().check_geometry(rows, cols, params)
        chiplet_rows = int(params.get("chiplet_rows", cls.params["chiplet_rows"]))
        chiplet_cols = int(params.get("chiplet_cols", cls.params["chiplet_cols"]))
        gateways = int(params.get("gateways", cls.params["gateways"]))
        if chiplet_rows < 1 or chiplet_cols < 1:
            raise ValueError("chiplet grid dimensions must be positive")
        if chiplet_rows * chiplet_cols < 2:
            raise ValueError(
                "chiplet fabric needs at least 2 chiplets "
                f"(got {chiplet_rows}x{chiplet_cols})")
        if rows % chiplet_rows or cols % chiplet_cols:
            raise ValueError(
                f"chiplet grid {chiplet_rows}x{chiplet_cols} must divide the "
                f"die grid {rows}x{cols}")
        if gateways not in (1, 2):
            raise ValueError(f"chiplets support 1 or 2 gateways, got {gateways}")
        bw = float(params.get("backbone_bandwidth_factor",
                              cls.params["backbone_bandwidth_factor"]))
        lat = float(params.get("backbone_latency_factor",
                               cls.params["backbone_latency_factor"]))
        if bw <= 0 or lat <= 0:
            raise ValueError("chiplet backbone factors must be positive")

    def gateway_dies(self, tile: Tuple[int, int]) -> List[int]:
        """Return the gateway die ids of chiplet ``tile``, deduplicated."""
        trow, tcol = tile
        row0, col0 = trow * self.tile_rows, tcol * self.tile_cols
        corners = [(row0, col0)]
        if self.gateways == 2:
            corners.append((row0 + self.tile_rows - 1,
                            col0 + self.tile_cols - 1))
        seen: List[int] = []
        for row, col in corners:
            die = die_id(row, col, self.cols)
            if die not in seen:
                seen.append(die)
        return seen

    def _link_specs(self) -> Iterator[LinkSpec]:
        h, w = self.tile_rows, self.tile_cols
        for row in range(self.rows):
            for col in range(self.cols):
                src = die_id(row, col, self.cols)
                for drow, dcol in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    nrow, ncol = row + drow, col + dcol
                    if not (0 <= nrow < self.rows and 0 <= ncol < self.cols):
                        continue
                    # Intra-chiplet links only: no die-level wires across
                    # chiplet boundaries.
                    if (nrow // h, ncol // w) != (row // h, col // w):
                        continue
                    yield src, die_id(nrow, ncol, self.cols), 1.0, 1.0
        # Backbone: the g-th gateway of a chiplet links to the g-th gateway
        # of each adjacent chiplet (right and down; both directions yielded).
        bw, lat = self.backbone_bandwidth_factor, self.backbone_latency_factor
        for trow in range(self.chiplet_rows):
            for tcol in range(self.chiplet_cols):
                here = self.gateway_dies((trow, tcol))
                for nrow, ncol in ((trow, tcol + 1), (trow + 1, tcol)):
                    if not (nrow < self.chiplet_rows and ncol < self.chiplet_cols):
                        continue
                    there = self.gateway_dies((nrow, ncol))
                    for src, dst in zip(here, there):
                        yield src, dst, bw, lat
                        yield dst, src, bw, lat

    def collective_hop_factor(self) -> int:
        """Analytic hop factor: the canonical partition's worst group spans
        chiplets, paying local escape hops plus a weighted backbone hop."""
        span = (self.chiplet_rows - 1) + (self.chiplet_cols - 1)
        backbone = max(1, math.ceil(self.backbone_latency_factor - 1e-9))
        return max(1, span + backbone)
