"""Property-based invariants over every registered fabric family.

Hypothesis samples (family, geometry, params, die pairs) across the whole
topology zoo and pins the structural contracts the mapping layer leans on:

* canonical routes use only links the fabric actually has, chain
  contiguously from src to dst, and match the BFS hop distance;
* enumerated contiguous rings are genuine cycles — each die once, every
  consecutive (and wrap-around) pair fabric-adjacent;
* the routing memo every topology carries is invisible: a topology that
  has answered a query answers it again exactly like a freshly built twin,
  even after the caller mutated the lists it got back (task link
  incidences included);
* ``HardwareSpec.topology`` survives document round-trips losslessly;
* ``cache_key()`` distinguishes scenarios iff the topology name/params
  differ.

The suite stays pure topology/document work — no plan evaluation.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.scenario import HardwareSpec, Scenario
from repro.hardware.topologies import build_topology, topology_names
from repro.mapping.collectives import (
    expand_task,
    order_group_for_ring,
    ring_hop_factor,
)
from repro.mapping.routing import route_flow
from repro.parallelism.comm import CollectiveType, CommTask

FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: (rows, cols, spec) triples covering every family on valid geometries.
FABRIC_CASES = [
    (4, 8, {"name": "mesh"}),
    (3, 5, {"name": "mesh"}),
    (4, 8, {"name": "torus"}),
    (3, 5, {"name": "torus"}),
    (4, 8, {"name": "torus", "wrap_latency_factor": 2.5,
            "wrap_bandwidth_factor": 0.5}),
    (4, 8, {"name": "mesh3d", "layers": 2}),
    (6, 4, {"name": "mesh3d", "layers": 3,
            "vertical_latency_factor": 1.5}),
    (4, 8, {"name": "mesh3d", "layers": 4,
            "vertical_bandwidth_factor": 0.25}),
    (4, 8, {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 2}),
    (4, 8, {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 4,
            "gateways": 1}),
    (6, 6, {"name": "chiplet", "chiplet_rows": 3, "chiplet_cols": 3,
            "backbone_latency_factor": 3.0}),
    (4, 8, {"name": "express", "stride": 2}),
    (4, 8, {"name": "express", "stride": 3,
            "express_latency_factor": 1.25}),
    (5, 9, {"name": "express", "stride": 4}),
]

assert {case[2]["name"] for case in FABRIC_CASES} == set(topology_names())


@st.composite
def fabric_and_pair(draw):
    """A built fabric plus a random healthy (src, dst) die pair."""
    rows, cols, spec = draw(st.sampled_from(FABRIC_CASES))
    topology = build_topology(spec, rows, cols)
    dies = topology.dies()
    src = draw(st.sampled_from(dies))
    dst = draw(st.sampled_from(dies))
    return topology, src, dst


@st.composite
def fabric_and_group(draw):
    """A built fabric plus one of its canonical partition groups."""
    rows, cols, spec = draw(st.sampled_from(FABRIC_CASES))
    topology = build_topology(spec, rows, cols)
    sizes = [size for size in (2, 4, 8, 16) if size <= topology.num_dies]
    groups = topology.partition_into_groups(draw(st.sampled_from(sizes)))
    return topology, draw(st.sampled_from(groups))


class TestRoutingInvariants:
    @FAST
    @given(case=fabric_and_pair())
    def test_routes_use_only_fabric_links(self, case):
        topology, src, dst = case
        for route in (topology.xy_route(src, dst),
                      topology.yx_route(src, dst)):
            for link in route:
                assert topology.has_link(link.src, link.dst)
                assert topology.link(link.src, link.dst) == link

    @FAST
    @given(case=fabric_and_pair())
    def test_routes_chain_from_src_to_dst(self, case):
        topology, src, dst = case
        route = topology.xy_route(src, dst)
        if src == dst:
            assert route == []
            return
        assert route[0].src == src
        assert route[-1].dst == dst
        for left, right in zip(route, route[1:]):
            assert left.dst == right.src

    @FAST
    @given(case=fabric_and_pair())
    def test_route_length_equals_hop_distance(self, case):
        topology, src, dst = case
        assert len(topology.xy_route(src, dst)) \
            == topology.hop_distance(src, dst)

    @FAST
    @given(case=fabric_and_pair())
    def test_hop_cost_at_least_one_between_distinct_dies(self, case):
        topology, src, dst = case
        if src == dst:
            assert topology.hop_cost(src, dst) == 0
        else:
            assert topology.hop_cost(src, dst) >= 1


class TestRingInvariants:
    @FAST
    @given(case=fabric_and_group())
    def test_enumerated_rings_are_valid_cycles(self, case):
        topology, group = case
        ring = topology.contiguous_ring(group)
        if ring is None:
            return
        assert sorted(ring) == sorted(group)
        if len(ring) <= 2:
            return
        for a, b in zip(ring, ring[1:] + [ring[0]]):
            assert topology.are_adjacent(a, b)

    @FAST
    @given(case=fabric_and_group())
    def test_ring_penalty_is_positive_for_real_groups(self, case):
        topology, group = case
        penalty = topology.ring_penalty_hops(group)
        assert penalty >= (1 if len(group) > 1 else 0)


#: Every fabric case (no faults) plus a mesh with failed links, whose
#: blocked canonical routes detour through the BFS fallback.
MEMO_CASES = [(rows, cols, spec, ()) for rows, cols, spec in FABRIC_CASES] + [
    (4, 8, {"name": "mesh"}, ((0, 1), (9, 17), (10, 11), (13, 14), (20, 28))),
]


@st.composite
def memo_queries(draw):
    """A fabric case plus a die pair and a die group to query it with."""
    rows, cols, spec, failed_links = draw(st.sampled_from(MEMO_CASES))
    dies = st.integers(min_value=0, max_value=rows * cols - 1)
    return {
        "build": lambda: build_topology(spec, rows, cols,
                                        failed_links=failed_links),
        "src": draw(dies),
        "dst": draw(dies),
        "group": draw(st.lists(dies, min_size=1, max_size=6, unique=True)),
        "groups": draw(st.lists(st.lists(dies, min_size=1, max_size=6,
                                         unique=True),
                                min_size=1, max_size=3)),
        "kind": draw(st.sampled_from(list(CollectiveType))),
        "reorder_groups": draw(st.booleans()),
    }


class TestRoutingMemo:
    @FAST
    @given(query=memo_queries())
    def test_memoised_answers_match_a_fresh_twin(self, query):
        src, dst, group = query["src"], query["dst"], query["group"]
        warm, fresh = query["build"](), query["build"]()

        # Answer every query once on the warm topology, filling its memo,
        # and scribble over every list handed back.
        flow = route_flow(warm, src, dst, 1.0)
        flow.path.append(None)
        flow.path.reverse()
        ordering, _ = order_group_for_ring(warm, group)
        for closed in (True, False):
            ring_hop_factor(warm, ordering, closed)
        ordering.append(-1)
        ordering.reverse()
        if src != dst:
            assert (src, dst) in warm.path_memo
        if len(group) > 1:
            assert tuple(group) in warm.ring_memo

        assert route_flow(warm, src, dst, 1.0).path \
            == route_flow(fresh, src, dst, 1.0).path
        expected = order_group_for_ring(fresh, group)
        assert order_group_for_ring(warm, group) == expected
        for closed in (False, True):
            assert ring_hop_factor(warm, expected[0], closed) \
                == ring_hop_factor(fresh, expected[0], closed)

    @FAST
    @given(query=memo_queries())
    def test_memoised_incidence_matches_a_fresh_twin(self, query):
        warm, fresh = query["build"](), query["build"]()
        task = CommTask(query["kind"], group_size=2, bytes_per_device=3.0,
                        count=2.0, label="task", dimension="tp")

        def expand(topology):
            return expand_task(task, query["groups"], topology,
                               reorder_groups=query["reorder_groups"])

        # Fill the warm memo, then scribble over everything handed back:
        # every flow's path, and the incidence's layer arrays (read-only).
        flows, _ = expand(warm)
        for flow in flows:
            flow.path.append(None)
            flow.path.reverse()
        incidence = flows.incidence
        for layer in incidence.layers:
            with pytest.raises(ValueError):
                layer[0] = -1

        (warm_flows, warm_hops), (fresh_flows, fresh_hops) = \
            expand(warm), expand(fresh)
        assert warm_flows.incidence is incidence
        assert warm_hops == fresh_hops
        assert list(warm_flows) == list(fresh_flows)
        fresh_incidence = fresh_flows.incidence
        assert incidence.routes == fresh_incidence.routes
        assert incidence.links == fresh_incidence.links
        assert incidence.counts == fresh_incidence.counts
        assert [layer.tolist() for layer in incidence.layers] \
            == [layer.tolist() for layer in fresh_incidence.layers]


def topology_specs() -> st.SearchStrategy:
    """Serialisable topology documents over the sampled fabric cases."""
    return st.sampled_from(FABRIC_CASES).map(
        lambda case: (case[0], case[1], dict(case[2])))


class TestTopologySerde:
    @FAST
    @given(case=topology_specs())
    def test_hardware_topology_round_trips_losslessly(self, case):
        rows, cols, spec = case
        scenario = Scenario(hardware=HardwareSpec(rows=rows, cols=cols,
                                                  topology=spec))
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.hardware.topology == spec
        assert Scenario.from_json(scenario.to_json()) == scenario

    @FAST
    @given(first=topology_specs(), second=topology_specs())
    def test_cache_key_changes_iff_topology_differs(self, first, second):
        rows, cols = 4, 8

        def scenario(spec):
            # Keep only the fabric name/params: geometry is pinned so the
            # key can only differ through the topology section. Not every
            # sampled spec is valid on 4x8, so filter to the ones that are.
            try:
                return Scenario(hardware=HardwareSpec(rows=rows, cols=cols,
                                                      topology=spec[2]))
            except Exception:
                return None

        left, right = scenario(first), scenario(second)
        if left is None or right is None:
            return
        assert (left.cache_key() == right.cache_key()) \
            == (first[2] == second[2])

    @FAST
    @given(case=topology_specs())
    def test_unset_and_explicit_mesh_have_distinct_keys(self, case):
        rows, cols, _ = case
        unset = Scenario(hardware=HardwareSpec(rows=rows, cols=cols))
        explicit = Scenario(hardware=HardwareSpec(
            rows=rows, cols=cols, topology={"name": "mesh"}))
        assert unset.cache_key() != explicit.cache_key()

    @FAST
    @given(case=topology_specs())
    def test_non_topology_perturbation_keeps_sections_independent(self, case):
        rows, cols, spec = case
        scenario = Scenario(hardware=HardwareSpec(rows=rows, cols=cols,
                                                  topology=spec))
        perturbed = dataclasses.replace(
            scenario,
            solver=dataclasses.replace(scenario.solver,
                                       seed=scenario.solver.seed + 1))
        assert perturbed.cache_key() != scenario.cache_key()
        assert perturbed.to_dict()["hardware"] \
            == scenario.to_dict()["hardware"]
