"""Tests for the 2D-mesh topology, routing, and ring enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.topologies import MeshTopology, die_coord, die_id


class TestBasics:
    def test_die_id_roundtrip(self):
        for die in range(32):
            row, col = die_coord(die, 8)
            assert die_id(row, col, 8) == die

    def test_num_dies(self):
        mesh = MeshTopology(4, 8)
        assert mesh.num_dies == 32
        assert len(mesh.dies()) == 32

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4)

    def test_link_count_of_4x8_mesh(self):
        mesh = MeshTopology(4, 8)
        # Directed links: 2 * (rows*(cols-1) + cols*(rows-1)) = 2 * (28 + 24).
        assert len(mesh.links()) == 104

    def test_neighbours_of_corner_and_center(self):
        mesh = MeshTopology(4, 8)
        assert sorted(mesh.neighbours(0)) == [1, 8]
        center = mesh.die_at(1, 3)
        assert len(mesh.neighbours(center)) == 4

    def test_has_link_only_between_adjacent(self):
        mesh = MeshTopology(4, 8)
        assert mesh.has_link(0, 1)
        assert mesh.has_link(1, 0)
        assert not mesh.has_link(0, 2)
        assert not mesh.has_link(0, 9)  # diagonal

    def test_link_lookup_raises_for_missing(self):
        mesh = MeshTopology(4, 8)
        with pytest.raises(KeyError):
            mesh.link(0, 9)

    def test_hop_distance_is_manhattan(self):
        mesh = MeshTopology(4, 8)
        assert mesh.hop_distance(0, 7) == 7
        assert mesh.hop_distance(0, mesh.die_at(3, 7)) == 10
        assert mesh.hop_distance(5, 5) == 0


class TestFaults:
    def test_failed_die_removed(self):
        mesh = MeshTopology(4, 8, failed_dies=[5])
        assert not mesh.is_healthy(5)
        assert mesh.num_dies == 31
        assert 5 not in mesh.neighbours(4)

    def test_failed_link_removed_both_directions(self):
        mesh = MeshTopology(4, 8, failed_links=[(0, 1)])
        assert not mesh.has_link(0, 1)
        assert not mesh.has_link(1, 0)

    def test_routing_detours_around_failed_link(self):
        mesh = MeshTopology(4, 8, failed_links=[(0, 1)])
        path = mesh.shortest_path(0, 1)
        assert path is not None
        assert len(path) > 1
        assert path[0].src == 0 and path[-1].dst == 1


class TestRouting:
    def test_xy_route_goes_columns_first(self):
        mesh = MeshTopology(4, 8)
        path = mesh.xy_route(0, mesh.die_at(2, 3))
        assert len(path) == 5
        # First three hops move along the row (column index changes).
        assert [link.dst for link in path[:3]] == [1, 2, 3]

    def test_yx_route_goes_rows_first(self):
        mesh = MeshTopology(4, 8)
        path = mesh.yx_route(0, mesh.die_at(2, 3))
        assert len(path) == 5
        assert [link.dst for link in path[:2]] == [8, 16]

    def test_route_to_self_is_empty(self):
        mesh = MeshTopology(4, 8)
        assert mesh.xy_route(3, 3) == []

    def test_shortest_path_length_equals_hop_distance(self):
        mesh = MeshTopology(4, 8)
        path = mesh.shortest_path(0, 31)
        assert path is not None
        assert len(path) == mesh.hop_distance(0, 31)

    def test_shortest_path_avoiding_links(self):
        mesh = MeshTopology(2, 2)
        direct = mesh.xy_route(0, 1)
        detour = mesh.shortest_path(0, 1, avoid_links=direct)
        assert detour is not None
        assert [link.dst for link in detour] == [2, 3, 1]

    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_xy_route_is_valid_and_minimal(self, src, dst):
        mesh = MeshTopology(4, 8)
        path = mesh.xy_route(src, dst)
        assert len(path) == mesh.hop_distance(src, dst)
        node = src
        for link in path:
            assert link.src == node
            assert mesh.are_adjacent(link.src, link.dst)
            node = link.dst
        if path:
            assert node == dst


class TestRings:
    def test_full_rectangle_forms_ring(self):
        mesh = MeshTopology(4, 8)
        group = [mesh.die_at(r, c) for r in range(2) for c in range(4)]
        ring = mesh.contiguous_ring(group)
        assert ring is not None
        assert sorted(ring) == sorted(group)
        pairs = list(zip(ring, ring[1:] + ring[:1]))
        assert all(mesh.are_adjacent(a, b) for a, b in pairs)

    def test_straight_line_of_more_than_two_is_not_a_ring(self):
        mesh = MeshTopology(4, 8)
        assert mesh.contiguous_ring([0, 1, 2, 3]) is None

    def test_two_adjacent_dies_form_degenerate_ring(self):
        mesh = MeshTopology(4, 8)
        assert mesh.contiguous_ring([0, 1]) == [0, 1]

    def test_two_distant_dies_do_not(self):
        mesh = MeshTopology(4, 8)
        assert mesh.contiguous_ring([0, 5]) is None

    def test_odd_sized_group_cannot_ring(self):
        mesh = MeshTopology(4, 8)
        assert mesh.contiguous_ring([0, 1, 8]) is None

    def test_scattered_group_cannot_ring(self):
        mesh = MeshTopology(4, 8)
        assert mesh.contiguous_ring([0, 7, 24, 31]) is None

    def test_duplicate_dies_rejected(self):
        mesh = MeshTopology(4, 8)
        with pytest.raises(ValueError):
            mesh.contiguous_ring([0, 0, 1, 8])

    def test_ring_penalty_is_one_for_contiguous(self):
        mesh = MeshTopology(4, 8)
        group = [mesh.die_at(r, c) for r in range(2) for c in range(2)]
        assert mesh.ring_penalty_hops(group) == 1

    def test_ring_penalty_grows_for_linear_group(self):
        mesh = MeshTopology(4, 8)
        assert mesh.ring_penalty_hops([0, 1, 2, 3, 4, 5, 6, 7]) == 7


class TestGrouping:
    def test_partition_into_rows(self):
        mesh = MeshTopology(4, 8)
        groups = mesh.partition_into_groups(8)
        assert len(groups) == 4
        assert all(len(group) == 8 for group in groups)
        flattened = sorted(die for group in groups for die in group)
        assert flattened == list(range(32))

    def test_partition_prefers_square_tiles(self):
        mesh = MeshTopology(4, 8)
        groups = mesh.partition_into_groups(4)
        assert len(groups) == 8
        # Every group of 4 should be a 2x2 tile and therefore form a ring.
        assert all(mesh.contiguous_ring(group) is not None for group in groups)

    def test_partition_rejects_bad_sizes(self):
        mesh = MeshTopology(4, 8)
        with pytest.raises(ValueError):
            mesh.partition_into_groups(0)
        with pytest.raises(ValueError):
            mesh.partition_into_groups(33)

    @given(st.sampled_from([2, 4, 8, 16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_partition_covers_all_dies_exactly_once(self, size):
        mesh = MeshTopology(4, 8)
        groups = mesh.partition_into_groups(size)
        flattened = sorted(die for group in groups for die in group)
        assert flattened == list(range(32))
