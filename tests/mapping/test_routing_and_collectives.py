"""Tests for flows, collective expansion, and link-load accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.topologies import MeshTopology
from repro.mapping.collectives import (
    expand_task,
    order_group_for_ring,
    ring_hop_factor,
)
from repro.mapping.contention import LinkLoadMap, flows_through
from repro.mapping.routing import route_flow
from repro.parallelism.comm import CollectiveType, CommTask


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology(4, 8)


class TestFlow:
    def test_route_flow_follows_xy(self, mesh):
        flow = route_flow(mesh, 0, 10, num_bytes=100)
        assert flow.hops == mesh.hop_distance(0, 10)
        assert flow.total_bytes == 100

    def test_self_flow_has_empty_path(self, mesh):
        flow = route_flow(mesh, 3, 3, num_bytes=100)
        assert flow.path == []
        assert flow.hops == 0

    def test_count_multiplies_total_bytes(self, mesh):
        flow = route_flow(mesh, 0, 1, num_bytes=100, count=5)
        assert flow.total_bytes == 500

    def test_reroute_validates_endpoints(self, mesh):
        flow = route_flow(mesh, 0, 2, num_bytes=10)
        alternative = mesh.yx_route(0, 2)
        rerouted = flow.rerouted(alternative)
        assert rerouted.src == 0 and rerouted.dst == 2
        with pytest.raises(ValueError):
            flow.rerouted(mesh.xy_route(1, 3))

    def test_route_around_failed_link(self):
        broken = MeshTopology(4, 8, failed_links=[(0, 1)])
        flow = route_flow(broken, 0, 1, num_bytes=10)
        assert flow.hops > 1

    def test_unroutable_raises(self):
        # Isolate die 0 completely.
        broken = MeshTopology(2, 2, failed_links=[(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            route_flow(broken, 0, 3, num_bytes=10)


class TestGroupOrdering:
    def test_rectangular_group_detected_as_ring(self, mesh):
        group = [0, 1, 8, 9]
        ordering, is_ring = order_group_for_ring(mesh, group)
        assert is_ring
        assert ring_hop_factor(mesh, ordering, closed=True) == 1

    def test_scattered_group_gets_chain_ordering(self, mesh):
        group = [0, 31, 7, 24]
        ordering, is_ring = order_group_for_ring(mesh, group)
        assert not is_ring
        assert sorted(ordering) == sorted(group)

    def test_single_member(self, mesh):
        ordering, is_ring = order_group_for_ring(mesh, [5])
        assert ordering == [5] and is_ring


class TestExpandTask:
    def test_ring_collective_on_contiguous_group_is_one_hop(self, mesh):
        task = CommTask(CollectiveType.ALL_REDUCE, group_size=4,
                        bytes_per_device=100, dimension="dp")
        flows, hops = expand_task(task, [[0, 1, 9, 8]], mesh)
        assert hops == 1
        assert len(flows) == 4
        assert all(flow.hops == 1 for flow in flows)

    def test_linear_group_pays_wraparound(self, mesh):
        task = CommTask(CollectiveType.ALL_REDUCE, group_size=8,
                        bytes_per_device=100, dimension="dp")
        flows, hops = expand_task(task, [[0, 1, 2, 3, 4, 5, 6, 7]], mesh)
        assert hops == 7

    def test_reorder_groups_false_keeps_given_order(self, mesh):
        task = CommTask(CollectiveType.ALL_REDUCE, group_size=4,
                        bytes_per_device=100)
        scrambled = [[9, 0, 8, 1]]
        _, hops_reordered = expand_task(task, scrambled, mesh, reorder_groups=True)
        _, hops_raw = expand_task(task, scrambled, mesh, reorder_groups=False)
        assert hops_reordered == 1
        assert hops_raw >= hops_reordered

    def test_stream_task_generates_bidirectional_chain_flows(self, mesh):
        task = CommTask(CollectiveType.STREAM, group_size=4,
                        bytes_per_device=50, overlappable=True, dimension="tatp")
        flows, hops = expand_task(task, [[0, 1, 2, 3]], mesh)
        assert hops == 1
        # 3 chain pairs x 2 directions.
        assert len(flows) == 6
        assert all(not flow.critical for flow in flows)

    def test_p2p_task_single_flow(self, mesh):
        task = CommTask(CollectiveType.P2P, group_size=2, bytes_per_device=10)
        flows, hops = expand_task(task, [[0, 16]], mesh)
        assert len(flows) == 1
        assert hops == 2

    def test_trivial_task_produces_nothing(self, mesh):
        task = CommTask(CollectiveType.ALL_REDUCE, group_size=1, bytes_per_device=10)
        flows, hops = expand_task(task, [[0]], mesh)
        assert flows == [] and hops == 0

    def test_multiple_groups_expand_independently(self, mesh):
        task = CommTask(CollectiveType.ALL_GATHER, group_size=4,
                        bytes_per_device=10)
        flows, _ = expand_task(task, [[0, 1, 8, 9], [2, 3, 10, 11]], mesh)
        assert len(flows) == 8


class TestLinkLoadMap:
    def test_loads_accumulate_over_flows(self, mesh):
        flows = [route_flow(mesh, 0, 2, 100), route_flow(mesh, 1, 2, 50)]
        loads = LinkLoadMap.from_flows(flows)
        assert loads.loads[(1, 2)] == pytest.approx(150)
        assert loads.max_load() == pytest.approx(150)
        assert loads.max_load_link() == (1, 2)

    def test_critical_only_filter(self, mesh):
        critical = route_flow(mesh, 0, 1, 100, critical=True)
        overlap = route_flow(mesh, 0, 1, 100, critical=False)
        loads = LinkLoadMap.from_flows([critical, overlap], critical_only=True)
        assert loads.max_load() == pytest.approx(100)

    def test_empty_flows(self):
        loads = LinkLoadMap.from_flows([])
        assert loads.max_load() == 0.0
        assert loads.max_load_link() is None
        assert loads.imbalance() == 1.0

    def test_imbalance_detects_hot_links(self, mesh):
        balanced = LinkLoadMap.from_flows(
            [route_flow(mesh, 0, 1, 100), route_flow(mesh, 2, 3, 100)])
        skewed = LinkLoadMap.from_flows(
            [route_flow(mesh, 0, 1, 100), route_flow(mesh, 0, 1, 100)])
        assert balanced.imbalance() == pytest.approx(1.0)
        assert skewed.imbalance() == pytest.approx(1.0)
        mixed = LinkLoadMap.from_flows(
            [route_flow(mesh, 0, 1, 300), route_flow(mesh, 2, 3, 100)])
        assert mixed.imbalance() > 1.0

    def test_utilization_bounded_by_one(self, mesh):
        loads = LinkLoadMap.from_flows([route_flow(mesh, 0, 1, 1e15)])
        assert loads.utilization(mesh, 1.0, 1e12) == 1.0
        assert loads.utilization(mesh, 0.0, 1e12) == 0.0

    def test_flows_through_finds_hot_flows(self, mesh):
        flows = [route_flow(mesh, 0, 2, 100), route_flow(mesh, 8, 9, 100)]
        hot = flows_through(flows, (0, 1))
        assert len(hot) == 1
        assert hot[0].src == 0

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                    min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_total_bytes_equals_sum_of_bytes_times_hops(self, pairs):
        mesh = MeshTopology(4, 8)
        flows = [route_flow(mesh, a, b, 10.0) for a, b in pairs]
        loads = LinkLoadMap.from_flows(flows)
        expected = sum(10.0 * mesh.hop_distance(a, b) for a, b in pairs)
        assert loads.total_bytes() == pytest.approx(expected)
