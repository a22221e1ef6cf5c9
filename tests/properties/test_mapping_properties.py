"""Property tests of the array-native mapping path against its object reference.

The engines route every task through the link incidence memoised on the
topology and accumulate link loads as arrays. The reference here is the
object path the engines used before: groups formed by the position loop
below, every task expanded into :class:`~repro.mapping.routing.Flow` objects
on a memo-free twin of the fabric, and loads summed by
:meth:`LinkLoadMap.from_flows`. Hypothesis draws a fabric (every
``FABRIC_CASES`` family plus the faulty mesh of ``MEMO_CASES``), a spec that
fills it, and checks each engine against the reference:

* link loads and critical link loads are equal value for value and in key
  order (the order fixes the float sums of ``total_bytes``/``mean_load``);
* per-task hop factors, flows, ``tatp_hop_factor``, groups and dies match;
* link load is conserved: the loads sum to the flows' bytes x hops;
* vectorised group formation equals the position loop.

Over the Table II candidate plans, TCME's ``(tatp_hop_factor,
max_link_load)`` never exceeds GMap's, compared lexicographically.
"""

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel.tables import analyze_model
from repro.hardware.config import default_wafer_config
from repro.hardware.faults import FaultModel
from repro.hardware.topologies import build_topology
from repro.hardware.wafer import WaferScaleChip
from repro.mapping.collectives import _expand_groups
from repro.mapping.contention import LinkLoadMap
from repro.mapping.engines import GMapEngine, TCMEEngine, get_engine
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.representation import (
    DEFAULT_DIMENSION_ORDER,
    build_parallel_groups,
)
from repro.parallelism.spec import ParallelSpec
from repro.workloads.models import TABLE_II_MODELS, get_model

from test_topology_properties import MEMO_CASES

FAST = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ENGINES = ("smap", "gmap", "tcme", "scattered")

MODEL = get_model("gpt3-6.7b")

#: One wafer per fabric case, shared by every example so the routing memos
#: run warm, as they do in a sweep.
_WAFERS: Dict[int, WaferScaleChip] = {}


def _wafer(case_index: int) -> WaferScaleChip:
    wafer = _WAFERS.get(case_index)
    if wafer is None:
        rows, cols, spec, failed_links = MEMO_CASES[case_index]
        wafer = WaferScaleChip(
            default_wafer_config(rows=rows, cols=cols),
            fault_model=FaultModel(failed_links=set(failed_links)),
            topology=spec)
        _WAFERS[case_index] = wafer
    return wafer


def _twin(case_index: int):
    """A freshly built, memo-free copy of the case's fabric."""
    rows, cols, spec, failed_links = MEMO_CASES[case_index]
    return build_topology(spec, rows, cols, failed_links=failed_links)


def _prime_factors(number: int) -> List[int]:
    factors, divisor = [], 2
    while number > 1:
        while number % divisor == 0:
            factors.append(divisor)
            number //= divisor
        divisor += 1
    return factors


@st.composite
def filling_specs(draw, dies: int) -> ParallelSpec:
    """A spec whose intra-stage degrees multiply to ``dies``."""
    degrees = dict.fromkeys(DEFAULT_DIMENSION_ORDER, 1)
    for factor in _prime_factors(dies):
        degrees[draw(st.sampled_from(DEFAULT_DIMENSION_ORDER))] *= factor
    return ParallelSpec(pp=draw(st.sampled_from([1, 2])), **degrees)


@st.composite
def mapping_cases(draw):
    """A fabric case index, its wafer, and a plan that fills the wafer."""
    case_index = draw(st.integers(0, len(MEMO_CASES) - 1))
    wafer = _wafer(case_index)
    spec = draw(filling_specs(wafer.topology.num_dies))
    plan = analyze_model(MODEL, spec, num_devices=spec.total_degree)
    return case_index, wafer, plan


def reference_groups(
    spec: ParallelSpec, dies: Sequence[int],
    order: Sequence[str] = DEFAULT_DIMENSION_ORDER,
) -> Dict[str, List[List[int]]]:
    """Group formation by position: the loop the vectorised form replaced."""
    all_degrees = spec.as_dict()
    degrees = [(name, all_degrees[name]) for name in order]
    groups: Dict[str, List[List[int]]] = {name: [] for name, _ in degrees}
    strides: Dict[str, int] = {}
    stride = 1
    for name, degree in reversed(degrees):
        strides[name] = stride
        stride *= degree
    for name, degree in degrees:
        if degree == 1:
            continue
        group_map: Dict[Tuple, List[int]] = {}
        for position, die in enumerate(dies):
            key = tuple((position // strides[other]) % other_degree
                        for other, other_degree in degrees
                        if other != name and other_degree != 1)
            group_map.setdefault(key, []).append(die)
        groups[name] = list(group_map.values())
    return groups


def reference_mapping(engine, plan, topology, dies, order):
    """The object path: dies, groups, per-task (flows, hop factor), loads."""
    intra = plan.spec.without_pipeline()
    stage_dies = list(dies)[: intra.intra_stage_degree]
    groups = reference_groups(intra, stage_dies, order)
    tasks = []
    for task in plan.all_tasks:
        if task.is_trivial:
            tasks.append(([], 0))
            continue
        tasks.append(_expand_groups(
            task, engine._groups_for_task(task, groups, plan), topology,
            engine.reorder_groups))
    flows = [flow for task_flows, _ in tasks for flow in task_flows]
    loads = LinkLoadMap.from_flows(flows)
    critical = LinkLoadMap.from_flows(flows, critical_only=True)
    return stage_dies, groups, tasks, loads, critical


def assert_matches_reference(result, plan, reference) -> None:
    stage_dies, groups, tasks, loads, critical = reference
    assert result.dies == stage_dies
    assert result.groups == groups
    assert len(result.task_routings) == len(tasks)
    for routing, (flows, hop_factor) in zip(result.task_routings, tasks):
        assert routing.hop_factor == hop_factor
        assert len(routing.flows) == len(flows)
        assert list(routing.flows) == flows
    assert list(result.link_loads.loads.items()) == list(loads.loads.items())
    assert list(result.critical_link_loads.loads.items()) \
        == list(critical.loads.items())
    assert result.tatp_hop_factor == max(
        (hop for task, (_, hop) in zip(plan.all_tasks, tasks)
         if task.dimension == "tatp"), default=1)


def assert_loads_conserved(result) -> None:
    flows = result.flows
    assert result.link_loads.total_bytes() == pytest.approx(
        sum(flow.total_bytes * flow.hops for flow in flows), rel=1e-12)
    assert result.critical_link_loads.total_bytes() == pytest.approx(
        sum(flow.total_bytes * flow.hops for flow in flows if flow.critical),
        rel=1e-12)


class TestArrayPathParity:
    @FAST
    @given(case=mapping_cases(), engine_name=st.sampled_from(ENGINES))
    def test_engine_matches_the_object_reference(self, case, engine_name):
        case_index, wafer, plan = case
        engine = get_engine(engine_name)
        twin = _twin(case_index)
        result = engine.map(plan, wafer)
        assert_loads_conserved(result)
        if engine_name != "tcme":
            reference = reference_mapping(
                engine, plan, twin, engine._die_ordering(wafer, plan),
                engine._dimension_order(plan, wafer))
            assert_matches_reference(result, plan, reference)
            return

        # TCME ranks its layouts by their array loads: every layout must
        # match the reference, and the winner is the reference's best.
        best_key, best_reference = None, None
        for dies, order in engine._candidate_layouts(plan, wafer):
            reference = reference_mapping(engine, plan, twin, dies, order)
            candidate = engine._map_with(plan, wafer, dies, order)
            assert_matches_reference(candidate, plan, reference)
            assert_loads_conserved(candidate)
            loads = reference[3]
            key = (candidate.tatp_hop_factor, loads.max_load(),
                   loads.imbalance())
            if best_key is None or key < best_key:
                best_key, best_reference = key, reference
        stage_dies, groups = best_reference[:2]
        assert result.dies == stage_dies
        assert result.groups == groups
        assert list(result.link_loads.loads.items()) == list(
            LinkLoadMap.from_flows(result.flows).loads.items())

    @FAST
    @given(data=st.data())
    def test_vectorised_groups_equal_the_position_loop(self, data):
        degrees = {name: data.draw(st.sampled_from([1, 1, 2, 3, 4]))
                   for name in DEFAULT_DIMENSION_ORDER}
        spec = ParallelSpec(**degrees)
        order = data.draw(st.permutations(DEFAULT_DIMENSION_ORDER))
        dies = data.draw(st.permutations(range(spec.intra_stage_degree)))
        groups = build_parallel_groups(spec, dies, order=order)
        assert groups == reference_groups(spec, dies, order)
        assert list(groups) == list(order)


def _table_ii_plans():
    """Every single-wafer Table II candidate plan: each scheme, pp=1."""
    for name in TABLE_II_MODELS:
        model = get_model(name)
        for scheme in BaselineScheme:
            for spec in candidate_specs(scheme, 32):
                yield analyze_model(model, spec, num_devices=32)


class TestTCMEOracle:
    def test_tcme_never_ranks_behind_gmap(self):
        # TCME ranks layouts by TATP hop factor first, so its plain
        # max_link_load may exceed GMap's (up to 2.2x on these plans); the
        # pair (tatp_hop_factor, max_link_load) may not.
        wafer = WaferScaleChip()
        plans = 0
        for plan in _table_ii_plans():
            tcme = TCMEEngine().map(plan, wafer)
            gmap = GMapEngine().map(plan, wafer)
            assert (tcme.tatp_hop_factor, tcme.max_link_load) \
                <= (gmap.tatp_hop_factor, gmap.max_link_load), plan.spec
            plans += 1
        assert plans == 528
