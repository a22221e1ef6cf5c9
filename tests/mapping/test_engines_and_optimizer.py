"""Tests for the mapping engines (SMap/GMap/TCME) and the traffic optimizer."""

import pytest

from repro.hardware.topologies import MeshTopology
from repro.mapping.engines import (
    GMapEngine,
    MappingResult,
    SMapEngine,
    TCMEEngine,
    get_engine,
    snake_order,
)
from repro.mapping.optimizer import TrafficOptimizer
from repro.mapping.routing import route_flow
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model


@pytest.fixture(scope="module")
def tatp_plan(gpt3_6b):
    return analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8), num_devices=32)


@pytest.fixture(scope="module")
def hybrid_plan(gpt3_6b):
    return analyze_model(gpt3_6b, ParallelSpec(fsdp=4, tatp=8), num_devices=32)


class TestSnakeOrder:
    def test_consecutive_dies_are_adjacent(self, wafer):
        ordering = snake_order(wafer.topology)
        assert sorted(ordering) == list(range(32))
        for a, b in zip(ordering, ordering[1:]):
            assert wafer.topology.are_adjacent(a, b)

    def test_skips_failed_dies(self):
        from repro.hardware.faults import FaultModel
        from repro.hardware.wafer import WaferScaleChip
        chip = WaferScaleChip(fault_model=FaultModel(dead_dies={0}))
        ordering = snake_order(chip.topology)
        assert 0 not in ordering
        assert len(ordering) == 31


class TestEngines:
    def test_get_engine_by_name(self):
        assert isinstance(get_engine("smap"), SMapEngine)
        assert isinstance(get_engine("GMAP"), GMapEngine)
        assert isinstance(get_engine("tcme"), TCMEEngine)
        with pytest.raises(KeyError):
            get_engine("unknown")

    @pytest.mark.parametrize("engine_name", ["smap", "gmap", "tcme"])
    def test_mapping_produces_complete_result(self, engine_name, tatp_plan, wafer):
        result = get_engine(engine_name).map(tatp_plan, wafer)
        assert isinstance(result, MappingResult)
        assert result.engine == engine_name
        assert len(result.dies) == 32
        assert len(result.task_routings) == len(tatp_plan.all_tasks)
        assert result.link_loads.total_bytes() >= 0

    def test_tcme_keeps_tatp_groups_contiguous(self, tatp_plan, wafer):
        result = TCMEEngine().map(tatp_plan, wafer)
        assert result.tatp_hop_factor == 1

    def test_tcme_max_load_not_worse_than_gmap(self, hybrid_plan, wafer):
        gmap = GMapEngine().map(hybrid_plan, wafer)
        tcme = TCMEEngine().map(hybrid_plan, wafer)
        assert tcme.max_link_load <= gmap.max_link_load * 1.001

    def test_smap_never_better_than_tcme_on_hop_factor(self, hybrid_plan, wafer):
        smap = SMapEngine().map(hybrid_plan, wafer)
        tcme = TCMEEngine().map(hybrid_plan, wafer)
        assert tcme.tatp_hop_factor <= smap.tatp_hop_factor

    def test_hop_factor_lookup_defaults_to_one(self, tatp_plan, wafer):
        from repro.parallelism.comm import CollectiveType, CommTask
        result = TCMEEngine().map(tatp_plan, wafer)
        unknown = CommTask(CollectiveType.P2P, 2, 1.0, label="not-there")
        assert result.hop_factor_for(unknown) == 1

    def test_groups_cover_every_dimension_in_spec(self, hybrid_plan, wafer):
        result = TCMEEngine().map(hybrid_plan, wafer)
        assert result.groups["fsdp"]
        assert result.groups["tatp"]
        assert result.groups["tp"] == []

    def test_optimization_report_attached_for_tcme_only(self, hybrid_plan, wafer):
        tcme = TCMEEngine().map(hybrid_plan, wafer)
        smap = SMapEngine().map(hybrid_plan, wafer)
        assert tcme.optimization is not None
        assert smap.optimization is None

    def test_contention_imbalance_at_least_one(self, hybrid_plan, wafer):
        result = GMapEngine().map(hybrid_plan, wafer)
        assert result.contention_imbalance >= 1.0

    def test_smaller_spec_uses_subset_of_dies(self, gpt3_6b, wafer):
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=2, tatp=4), num_devices=8)
        result = TCMEEngine().map(plan, wafer)
        assert len(result.dies) == 8


class TestTrafficOptimizer:
    def test_reroutes_reduce_max_load(self):
        mesh = MeshTopology(4, 4)
        # Two multi-hop flows that share the 0->1 link under XY routing.
        flows = [
            route_flow(mesh, 0, 2, 100.0, task_label="a"),
            route_flow(mesh, 0, 3, 100.0, task_label="b"),
        ]
        optimizer = TrafficOptimizer(mesh)
        optimized, report = optimizer.optimize(flows)
        assert report.final_max_load <= report.initial_max_load
        assert len(optimized) == 2

    def test_single_hop_flows_cannot_be_rerouted(self):
        mesh = MeshTopology(4, 4)
        flows = [route_flow(mesh, 0, 1, 100.0), route_flow(mesh, 0, 1, 100.0)]
        optimizer = TrafficOptimizer(mesh)
        _, report = optimizer.optimize(flows)
        assert report.reroutes == 0
        assert report.final_max_load == pytest.approx(report.initial_max_load)

    def test_duplicate_flows_are_merged(self):
        mesh = MeshTopology(4, 4)
        flow = route_flow(mesh, 0, 2, 100.0, task_label="bcast")
        optimized, report = TrafficOptimizer(mesh).optimize([flow, flow])
        assert report.merges == 1
        assert len(optimized) == 1

    def test_empty_input(self):
        mesh = MeshTopology(2, 2)
        optimized, report = TrafficOptimizer(mesh).optimize([])
        assert optimized == []
        assert report.improvement == 0.0

    def test_invalid_iteration_count(self):
        with pytest.raises(ValueError):
            TrafficOptimizer(MeshTopology(2, 2), max_iterations=0)

    def test_improvement_metric(self):
        mesh = MeshTopology(4, 4)
        flows = [
            route_flow(mesh, 0, 2, 100.0, task_label="a"),
            route_flow(mesh, 4, 6, 100.0, task_label="b"),
            route_flow(mesh, 0, 6, 100.0, task_label="c"),
        ]
        _, report = TrafficOptimizer(mesh).optimize(flows)
        assert 0.0 <= report.improvement <= 1.0
