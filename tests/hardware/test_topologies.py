"""Tests of the topology zoo: registry, fabric families, and the shim.

The default-mesh contract (bit-identity of every mesh result) is pinned by
the goldens and the differential suite; here the zoo itself is under test —
each family's link set, hop model, ring enumeration, and the registry's
validation errors.
"""

import pytest

from repro.api.scenario import HardwareSpec, Scenario, ScenarioError
from repro.hardware.topologies import (
    DEFAULT_TOPOLOGY,
    build_topology,
    get_topology_class,
    topology_names,
    topology_table,
    validate_topology_spec,
)
from repro.hardware.topologies.chiplet import ChipletTopology
from repro.hardware.topologies.express import ExpressMeshTopology
from repro.hardware.topologies.mesh import MeshTopology
from repro.hardware.topologies.mesh3d import StackedMeshTopology
from repro.hardware.topologies.torus import TorusTopology
from repro.hardware.wafer import WaferScaleChip


class TestRegistry:
    def test_default_family_is_mesh_and_listed_first(self):
        names = topology_names()
        assert DEFAULT_TOPOLOGY == "mesh"
        assert names[0] == "mesh"
        assert set(names) >= {"mesh", "torus", "mesh3d", "chiplet",
                              "express"}

    def test_at_least_three_non_mesh_families(self):
        assert len([name for name in topology_names()
                    if name != "mesh"]) >= 3

    def test_unknown_family_lists_known_names(self):
        with pytest.raises(ValueError, match="mesh"):
            get_topology_class("hypercube")

    def test_build_none_is_the_default_mesh(self):
        topology = build_topology(None, 4, 8)
        assert type(topology) is MeshTopology

    def test_build_passes_params_through(self):
        topology = build_topology(
            {"name": "mesh3d", "layers": 4, "vertical_latency_factor": 3.0},
            4, 8)
        assert isinstance(topology, StackedMeshTopology)
        assert topology.layers == 4
        assert topology.vertical_latency_factor == 3.0

    def test_validate_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_topology_spec({"name": "torus", "twist": 2})

    def test_validate_rejects_wrong_typed_param(self):
        with pytest.raises(ValueError):
            validate_topology_spec({"name": "express", "stride": "two"})

    def test_validate_rejects_bad_geometry(self):
        # 5 rows are not divisible into 2 decks.
        with pytest.raises(ValueError):
            validate_topology_spec({"name": "mesh3d", "layers": 2},
                                   rows=5, cols=8)

    def test_validate_without_geometry_skips_geometry_check(self):
        validate_topology_spec({"name": "mesh3d", "layers": 2})

    def test_topology_table_covers_every_family(self):
        rows = topology_table()
        assert {row["name"] for row in rows} == set(topology_names())
        assert all(row["link_model"] for row in rows)


class TestShim:
    def test_package_exports_from_hardware_namespace(self):
        from repro.hardware import MeshTopology as exported

        assert exported is MeshTopology


LINK_COUNTS_4X8 = {
    "mesh": ({}, 104),
    "torus": ({}, 128),
    "mesh3d": ({"layers": 2}, 120),
    "chiplet": ({"chiplet_rows": 2, "chiplet_cols": 2, "gateways": 2}, 96),
    "express": ({"stride": 2}, 144),
}


@pytest.mark.parametrize("name", sorted(LINK_COUNTS_4X8))
def test_link_count_of_each_family_on_4x8(name):
    params, expected = LINK_COUNTS_4X8[name]
    topology = build_topology({"name": name, **params}, 4, 8)
    assert len(topology.links()) == expected


class TestTorus:
    def test_wrap_links_shorten_row_distance(self):
        torus = TorusTopology(4, 8)
        mesh = MeshTopology(4, 8)
        first, last = torus.die_at(0, 0), torus.die_at(0, 7)
        assert torus.hop_distance(first, last) == 1
        assert mesh.hop_distance(first, last) == 7

    def test_full_row_closes_into_a_unit_cost_ring(self):
        torus = TorusTopology(4, 8)
        row = [torus.die_at(0, col) for col in range(8)]
        ring = torus.contiguous_ring(row)
        assert ring is not None
        assert torus.ring_penalty_hops(row) == 1
        # The same row on a mesh needs a 7-hop closure.
        assert MeshTopology(4, 8).ring_penalty_hops(row) == 7

    def test_weighted_wrap_links_cost_more(self):
        torus = TorusTopology(4, 8, wrap_latency_factor=3.0)
        first, last = torus.die_at(0, 0), torus.die_at(0, 7)
        # The wrap link costs ceil(3.0); the mesh chain costs 7.
        assert torus.hop_cost(first, last) == 3

    def test_no_wrap_on_degenerate_axes(self):
        # A 2-column torus would duplicate the existing mesh links.
        torus = TorusTopology(4, 2)
        mesh = MeshTopology(4, 2)
        assert len([l for l in torus.links()]) \
            == len(mesh.links()) + 2 * 2  # only column wraps (4 rows > 3)


class TestStackedMesh:
    def test_decks_are_disjoint_meshes_joined_by_vertical_links(self):
        topo = StackedMeshTopology(4, 8, layers=2)
        top, bottom = topo.die_at(0, 0), topo.die_at(2, 0)
        assert topo.deck_of(top) == 0
        assert topo.deck_of(bottom) == 1
        # No in-plane link crosses the deck boundary (rows 1 -> 2).
        assert not topo.has_link(topo.die_at(1, 0), topo.die_at(2, 0))
        # But the vertical link joins aligned dies across decks.
        assert topo.has_link(top, bottom)

    def test_vertical_links_carry_their_own_factors(self):
        topo = StackedMeshTopology(4, 8, layers=2,
                                   vertical_bandwidth_factor=0.25,
                                   vertical_latency_factor=4.0)
        link = topo.link(topo.die_at(0, 3), topo.die_at(2, 3))
        assert link.bandwidth_factor == 0.25
        assert link.latency_factor == 4.0
        in_plane = topo.link(topo.die_at(0, 3), topo.die_at(0, 4))
        assert in_plane.latency_factor == 1.0

    def test_geometry_check_requires_divisible_rows(self):
        with pytest.raises(ValueError):
            StackedMeshTopology(5, 8, layers=2)


class TestChiplet:
    def test_cross_chiplet_traffic_goes_through_gateways(self):
        # A 2x2 chiplet grid over 4x8 dies: each tile spans 2 rows x 4 cols,
        # so the vertical tile boundary runs between columns 3 and 4.
        topo = ChipletTopology(4, 8, chiplet_rows=2, chiplet_cols=2,
                               gateways=1)
        # Non-gateway dies on the boundary have no direct cross-tile link.
        assert not topo.has_link(topo.die_at(0, 3), topo.die_at(0, 4))
        # The single gateway (local (0,0)) of the right-adjacent tile pair.
        assert topo.has_link(topo.die_at(0, 0), topo.die_at(0, 4))

    def test_backbone_links_carry_backbone_factors(self):
        topo = ChipletTopology(4, 8, chiplet_rows=2, chiplet_cols=2,
                               gateways=1, backbone_bandwidth_factor=0.125,
                               backbone_latency_factor=5.0)
        link = topo.link(topo.die_at(0, 0), topo.die_at(0, 4))
        assert link.bandwidth_factor == 0.125
        assert link.latency_factor == 5.0

    def test_collective_hop_factor_reflects_backbone_escape(self):
        topo = ChipletTopology(4, 8, chiplet_rows=2, chiplet_cols=2,
                               gateways=2)
        assert topo.collective_hop_factor() == 4
        assert MeshTopology(4, 8).collective_hop_factor() == 1


class TestExpressMesh:
    def test_express_links_skip_stride_dies(self):
        topo = ExpressMeshTopology(4, 8, stride=2)
        assert topo.has_link(topo.die_at(0, 0), topo.die_at(0, 2))
        assert not topo.has_link(topo.die_at(0, 1), topo.die_at(0, 3))

    def test_express_links_carry_their_own_factors(self):
        topo = ExpressMeshTopology(4, 8, stride=2,
                                   express_latency_factor=1.5)
        express = topo.link(topo.die_at(0, 0), topo.die_at(0, 2))
        assert express.latency_factor == 1.5
        local = topo.link(topo.die_at(0, 0), topo.die_at(0, 1))
        assert local.latency_factor == 1.0

    def test_stride_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ExpressMeshTopology(4, 8, stride=1)


class TestWaferIntegration:
    def test_wafer_builds_the_requested_fabric(self):
        wafer = WaferScaleChip(topology={"name": "torus"})
        assert isinstance(wafer.topology, TorusTopology)
        assert wafer.topology_spec == {"name": "torus"}

    def test_wafer_defaults_to_mesh(self):
        wafer = WaferScaleChip()
        assert type(wafer.topology) is MeshTopology
        assert wafer.topology_spec is None

    def test_weighted_links_scale_bandwidth_and_latency(self):
        wafer = WaferScaleChip(topology={
            "name": "mesh3d", "layers": 2,
            "vertical_bandwidth_factor": 0.5,
            "vertical_latency_factor": 2.0})
        topo = wafer.topology
        vertical = topo.link(topo.die_at(0, 0), topo.die_at(2, 0))
        in_plane = topo.link(topo.die_at(0, 0), topo.die_at(0, 1))
        assert wafer.link_bandwidth(vertical) \
            == 0.5 * wafer.link_bandwidth(in_plane)
        payload = 2 ** 20
        assert wafer.link_transfer_time(vertical, payload) \
            > wafer.link_transfer_time(in_plane, payload)


class TestScenarioValidation:
    def test_topology_round_trips_through_the_document(self):
        scenario = Scenario(hardware=HardwareSpec(
            topology={"name": "express", "stride": 2}))
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.hardware.topology == {"name": "express", "stride": 2}

    def test_unknown_fabric_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid topology"):
            HardwareSpec(topology={"name": "hypercube"})

    def test_bad_geometry_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid topology"):
            HardwareSpec(rows=5, cols=8,
                         topology={"name": "mesh3d", "layers": 2})

    def test_gpu_cluster_rejects_topology(self):
        with pytest.raises(ScenarioError):
            HardwareSpec(platform="gpu_cluster",
                         topology={"name": "torus"})

    def test_non_mesh_rejects_multi_wafer(self):
        with pytest.raises(ScenarioError, match="single-wafer"):
            HardwareSpec(num_wafers=2, topology={"name": "torus"})

    def test_non_mesh_rejects_fault_study(self):
        with pytest.raises(ScenarioError, match="mesh"):
            HardwareSpec(link_fault_rate=0.01,
                         topology={"name": "torus"})

    def test_explicit_mesh_allows_fault_study(self):
        spec = HardwareSpec(link_fault_rate=0.01,
                            topology={"name": "mesh"})
        assert spec.topology == {"name": "mesh"}

    def test_resolve_wafer_builds_the_fabric(self):
        spec = HardwareSpec(topology={"name": "torus"})
        assert isinstance(spec.resolve_wafer().topology, TorusTopology)
        assert type(HardwareSpec().resolve_wafer().topology) is MeshTopology
