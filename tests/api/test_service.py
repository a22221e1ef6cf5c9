"""PlanService dispatch and the PlanResult schema."""

import math
import re

import pytest

from repro.api.scenario import (
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)
from repro.api.service import (
    PlanResult,
    PlanService,
    SolverOutcome,
    validate_result_payload,
)
from repro.core.framework import scheme_max_tp
from repro.costmodel.tables import PlanCache
from repro.hardware.config import GPUClusterConfig
from repro.parallelism.baselines import candidate_specs
from repro.simulation.gpu import GPUClusterSimulator
from repro.solver import dlws
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.workloads.models import TABLE_II_MODELS


def _scenario(model="gpt3-6.7b", **solver_kwargs) -> Scenario:
    return Scenario(workload=WorkloadSpec(model=model),
                    solver=SolverSpec(**solver_kwargs))


def _small_document(hardware=None, solver=None):
    """A 2-layer gpt3-6.7b scenario document (batch 8, seq 512)."""
    return {"schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": hardware or {}, "solver": solver or {}}


class TestDispatch:
    @pytest.fixture(scope="class")
    def service(self):
        return PlanService()

    def test_single_wafer_search(self, service):
        result = service.evaluate(_scenario(scheme="fsdp", engine="smap"))
        assert result.kind == "single_wafer"
        assert result.scheme == "fsdp" and result.engine == "smap"
        assert not result.oom
        assert result.step_time > 0 and result.throughput > 0
        assert result.candidates_evaluated > 1

    def test_fixed_spec_skips_search(self, service):
        result = service.evaluate(
            _scenario(fixed_spec={"dp": 4, "tatp": 8}))
        assert result.kind == "fixed_spec"
        assert result.candidates_evaluated == 1
        assert result.spec == "(dp=4,tp=1,sp=1,tatp=8)"

    def test_multi_wafer_path(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-175b"),
            hardware=HardwareSpec(num_wafers=2, num_microbatches=8),
            solver=SolverSpec.for_framework()))
        assert result.kind == "multi_wafer"
        assert result.num_wafers == 2
        assert result.pp_degree >= 2
        assert result.bubble_time >= 0

    def test_fault_path_zero_rate_is_lossless(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(core_fault_rate=0.0),
            solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})))
        assert result.kind == "fault"
        assert result.relative_throughput == pytest.approx(1.0)

    def test_fault_path_requires_fixed_spec(self, service):
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                            hardware=HardwareSpec(link_fault_rate=0.2))
        with pytest.raises(ScenarioError, match="fixed_spec"):
            service.evaluate(scenario)

    def test_gpu_cluster_path(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(platform="gpu_cluster"),
            solver=SolverSpec(scheme="mesp", engine="cluster")))
        assert result.kind == "gpu_cluster"
        assert not result.oom
        assert result.step_time > 0

    def test_wafer_cache_reuses_geometry(self, service):
        hardware = HardwareSpec(rows=2, cols=4)
        assert service.wafer_for(hardware) is service.wafer_for(hardware)

    def test_fault_path_honours_geometry(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(rows=8, cols=10, core_fault_rate=0.0),
            solver=SolverSpec(fixed_spec={"dp": 10, "tatp": 8})))
        assert result.kind == "fault"
        assert result.relative_throughput == pytest.approx(1.0)

    def test_multi_wafer_path_honours_geometry(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b", batch_size=8,
                                  seq_length=512, num_layers=2),
            hardware=HardwareSpec(rows=2, cols=2, num_wafers=2,
                                  num_microbatches=4),
            solver=SolverSpec(scheme="mesp", engine="gmap")))
        # Two 4-die wafers: the winning spec fills 8 devices, not 64.
        assert result.num_wafers == 2
        # The product of the label's degrees (a TP-coupled sp adds none).
        assert math.prod(
            int(degree) for degree in re.findall(r"=(\d+)", result.spec)) == 8

    def test_fault_path_maps_on_the_shared_chip(self):
        # The healthy run of a fault study maps on the service's cached
        # chip; only the faulty chip is built per scenario.
        service = PlanService()
        service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(link_fault_rate=0.2),
            solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})))
        assert service.stats()["wafers_cached"] == 1
        assert service.wafer_for(HardwareSpec()).topology.incidence_memo

    def test_inconsistent_hardware_combos_rejected(self):
        with pytest.raises(ScenarioError, match="multi-wafer"):
            HardwareSpec(num_wafers=2, link_fault_rate=0.4)
        with pytest.raises(ScenarioError, match="wafer platform"):
            HardwareSpec(platform="gpu_cluster", core_fault_rate=0.1)
        with pytest.raises(ScenarioError, match="num_wafers"):
            HardwareSpec(platform="gpu_cluster", num_wafers=2)
        with pytest.raises(ScenarioError, match="gpu_cluster comparator"):
            HardwareSpec(platform="gpu_cluster", rows=8, cols=8)
        with pytest.raises(ScenarioError, match="gpu_cluster comparator"):
            HardwareSpec(platform="gpu_cluster", hbm_capacity=1e11)

    def test_invalid_fixed_spec_degree_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid fixed_spec"):
            SolverSpec(fixed_spec={"dp": 0}).resolve_fixed_spec()

    def test_shared_cache_is_pure_memoisation(self):
        scenario = _scenario(scheme="mesp", engine="smap")
        cold = PlanService().evaluate(scenario)
        service = PlanService()
        service.evaluate(_scenario(scheme="mesp", engine="gmap"))  # warm it
        warm = service.evaluate(scenario)
        assert cold == warm

    def test_shared_wafer_leaks_no_state(self):
        # Single-wafer, multi-wafer and fault scenarios of one geometry map
        # on one chip (a multi-wafer system's wafers are all that chip, and
        # a fault study's healthy run uses it), so their routing memos
        # interleave; no payload may depend on what ran first.
        workload = WorkloadSpec(model="gpt3-6.7b", num_layers=8,
                                batch_size=32, seq_length=1024)

        def multi(num_wafers, scheme, engine):
            return Scenario(
                workload=workload,
                hardware=HardwareSpec(num_wafers=num_wafers,
                                      num_microbatches=8),
                solver=SolverSpec(scheme=scheme, engine=engine))

        scenarios = [
            multi(2, "temp", "tcme"),
            Scenario(workload=workload,
                     solver=SolverSpec(scheme="temp", engine="tcme")),
            multi(4, "fsdp", "smap"),
            Scenario(workload=workload,
                     solver=SolverSpec(scheme="mesp", engine="gmap")),
            multi(6, "mesp", "gmap"),
            Scenario(workload=workload,
                     solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})),
            multi(2, "megatron1", "gmap"),
            Scenario(workload=workload,
                     hardware=HardwareSpec(link_fault_rate=0.2),
                     solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})),
            Scenario(workload=workload,
                     solver=SolverSpec(scheme="fsdp", engine="smap")),
            Scenario(workload=workload,
                     hardware=HardwareSpec(core_fault_rate=0.25),
                     solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})),
        ]
        service = PlanService()
        memo = service.wafer_for(HardwareSpec()).topology.incidence_memo
        for scenario in scenarios:
            shared = service.evaluate(scenario).to_dict()
            assert shared == PlanService().evaluate(scenario).to_dict()
            assert service.stats()["wafers_cached"] == 1
            # The first scenario, a multi-wafer search, mapped on the chip.
            assert memo
        assert {scenario.hardware.num_wafers for scenario in scenarios} \
            == {1, 2, 4, 6}


def _gpu_reference(scenario: Scenario, plan_cache: PlanCache):
    """The GPU comparator as a loop over every candidate, and its fit count.

    Each candidate's plain plan is simulated; an OOM one is simulated again
    checkpointed and skipped if that is OOM too; the strictly fastest
    candidate is kept. Returns the expected payload and how many candidates
    fit with the plan that runs.
    """
    model = scenario.workload.resolve()
    solver = scenario.solver
    scheme = solver.resolved_scheme()
    num_devices = GPUClusterConfig().num_devices
    simulator = GPUClusterSimulator()
    specs = candidate_specs(scheme, num_devices,
                            max_tp=scheme_max_tp(scheme, model),
                            max_tatp=solver.max_tatp)
    best_time, best_throughput, fitting = float("inf"), 0.0, 0
    for spec in specs:
        report = simulator.simulate(plan_cache.analyze(
            model, spec, num_devices=num_devices))
        if report.oom:
            report = simulator.simulate(plan_cache.analyze(
                model, spec, num_devices=num_devices,
                activation_checkpointing=True))
            if report.oom:
                continue
        fitting += 1
        if report.step_time < best_time:
            best_time, best_throughput = report.step_time, report.throughput
    expected = PlanResult.from_gpu(
        model_name=model.name, scheme=solver.scheme, engine=solver.engine,
        step_time=best_time, throughput=best_throughput,
        candidates_evaluated=len(specs))
    return expected, fitting


class TestGPUComparator:
    def test_selects_like_every_other_search(self, monkeypatch):
        # Every Table II model x scheme x sequence length, on the cluster;
        # the long sequences leave some scenarios with no candidate that
        # fits, even checkpointed.
        scenarios = [
            Scenario(workload=WorkloadSpec(model=model, seq_length=seq_length),
                     hardware=HardwareSpec(platform="gpu_cluster"),
                     solver=SolverSpec(scheme=scheme, engine="cluster"))
            for model in TABLE_II_MODELS
            for scheme in ("mesp", "megatron1", "fsdp", "temp")
            for seq_length in (1024, 4096, 16384)]
        plan_cache = PlanCache()
        references = [_gpu_reference(scenario, plan_cache)
                      for scenario in scenarios]
        none_fit = sum(1 for _, fitting in references if fitting == 0)
        assert 0 < none_fit < len(scenarios)

        calls = []
        simulate = GPUClusterSimulator.simulate

        def counted(self, plan):
            calls.append(plan.spec)
            return simulate(self, plan)

        monkeypatch.setattr(GPUClusterSimulator, "simulate", counted)
        service = PlanService()
        for scenario, (expected, _) in zip(scenarios, references):
            assert service.evaluate(scenario).to_dict() == expected.to_dict()
        # Only what can be reported is simulated: each candidate that fits
        # once, and one candidate of a scenario where none fits.
        assert len(calls) == sum(fitting or 1 for _, fitting in references)


class TestPlanResult:
    def test_to_dict_is_json_safe_and_validates(self):
        result = PlanService().evaluate(_scenario(max_candidates=4))
        payload = result.to_dict()
        assert validate_result_payload(payload) == []
        import json
        json.dumps(payload, allow_nan=False)

    def test_validator_flags_missing_and_extra_keys(self):
        result = PlanService().evaluate(_scenario(max_candidates=4))
        payload = result.to_dict()
        payload.pop("step_time")
        payload["surprise"] = 1
        problems = validate_result_payload(payload)
        assert any("missing" in problem for problem in problems)
        assert any("unexpected" in problem for problem in problems)

    def test_validator_flags_schema_version_and_kind(self):
        payload = PlanService().evaluate(_scenario(max_candidates=4)).to_dict()
        payload["schema_version"] = 99
        payload["kind"] = "quantum"
        problems = validate_result_payload(payload)
        assert any("schema_version" in problem for problem in problems)
        assert any("kind" in problem for problem in problems)

    def test_validator_checks_a_solve_against_its_record(self):
        payload = PlanService().solve(
            _scenario(ga_generations=2, max_candidates=4)).to_dict()
        assert validate_result_payload(payload, SolverOutcome) == []
        payload["step_time"] = float("nan")
        payload["schema_version"] = 99
        del payload["dp_cost"]
        problems = validate_result_payload(payload, SolverOutcome)
        assert any("missing result keys: dp_cost" in problem
                   for problem in problems)
        assert any("schema_version" in problem for problem in problems)
        assert any("non-finite" in problem for problem in problems)

    def test_oom_step_time_serialises_as_null(self):
        result = PlanResult.from_gpu("m", "mesp", "cluster",
                                     float("inf"), 0.0, 3)
        assert result.oom
        assert result.to_dict()["step_time"] is None
        assert math.isinf(result.step_time)


class TestSolve:
    def test_solve_returns_flat_outcome(self, gpt3_6b):
        outcome = PlanService().solve(_scenario(ga_generations=4))
        assert outcome.model == "gpt3-6.7b"
        assert not outcome.oom
        assert outcome.candidates_considered > 0
        assert outcome.finalists_simulated >= 1
        assert outcome.evaluations > 0
        assert validate_result_payload.__name__  # smoke: module linkage

    def test_max_candidates_caps_the_candidates(self):
        # gpt3-6.7b prunes to more than 10 candidates; the cap subsamples
        # them the way the single-wafer search does.
        outcome = PlanService().solve(_scenario(ga_generations=4,
                                                max_candidates=10))
        assert outcome.candidates_considered == 10
        assert not outcome.oom

    def test_seed_reaches_the_genetic_refinement(self, monkeypatch):
        configs = []

        class RecordingRefiner(GeneticRefiner):
            def __init__(self, *args, genetic_config=None, **kwargs):
                configs.append(genetic_config)
                super().__init__(*args, genetic_config=genetic_config,
                                 **kwargs)

        monkeypatch.setattr(dlws, "GeneticRefiner", RecordingRefiner)
        service = PlanService()
        service.solve(_scenario(seed=7))
        service.solve(_scenario(seed=7, ga_generations=4))
        # The seed and the generation count are the only GA parameters the
        # scenario changes.
        assert configs == [
            GeneticConfig(generations=12, population_size=16, seed=7),
            GeneticConfig(generations=4, population_size=16, seed=7),
        ]

    def test_default_generation_count_is_the_default_refinement(self):
        # Naming the default's own generation count runs the same GA as
        # leaving the field unset.
        def outcome(**solver):
            payload = PlanService().solve(_scenario(**solver)).to_dict()
            payload.pop("search_seconds")
            return payload

        assert outcome(ga_generations=12) == outcome()

    def test_solve_rejects_gpu_platform(self):
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                            hardware=HardwareSpec(platform="gpu_cluster"))
        with pytest.raises(ScenarioError, match="wafer platform"):
            PlanService().solve(scenario)

    @pytest.mark.parametrize("hardware, solver, match", [
        ({"num_wafers": 2}, {}, "num_wafers=1"),
        ({"link_fault_rate": 0.3}, {}, "fault rates"),
        ({}, {"fixed_spec": {"dp": 4, "tatp": 8}}, "fixed_spec"),
        # No temp spec with pp=3 spans 32 dies.
        ({}, {"pipeline_degrees": [3]}, "no temp configuration"),
    ])
    def test_solve_rejects_what_it_cannot_plan(self, hardware, solver,
                                               match):
        scenario = Scenario.from_dict(_small_document(hardware, solver))
        with pytest.raises(ScenarioError, match=match):
            PlanService().solve(scenario)


class TestSolveAgreesWithEvaluate:
    """The solver's finalists run the plan the single-wafer search runs:
    checkpointed when only that fits (gpt3-175b and opt-175b at 16k tokens
    fit only checkpointed)."""

    @pytest.mark.parametrize("model, seq_length, pipeline_degrees", [
        ("gpt3-175b", 16384, (1,)),
        ("gpt3-175b", 16384, (1, 2, 4)),
        ("opt-175b", 16384, (1,)),
        ("opt-175b", 16384, (1, 2, 4)),
        ("gpt3-6.7b", 16384, (1,)),
        ("llama3-70b", 16384, (1, 2, 4)),
    ])
    def test_same_spec_oom_and_step_time(self, model, seq_length,
                                         pipeline_degrees):
        scenario = Scenario(
            workload=WorkloadSpec(model=model, seq_length=seq_length),
            solver=SolverSpec(pipeline_degrees=pipeline_degrees))
        service = PlanService()
        solved = service.solve(scenario)
        evaluated = service.evaluate(scenario)
        assert (solved.spec, solved.oom, solved.step_time) == (
            evaluated.spec, evaluated.oom, evaluated.step_time)
        assert not solved.oom


class TestRejectedPinnedSpecs:
    @pytest.mark.parametrize("hardware", [
        {"num_wafers": 2}, {"platform": "gpu_cluster"}])
    def test_pinned_spec_needs_a_single_wafer(self, hardware):
        with pytest.raises(ScenarioError, match="fixed_spec"):
            Scenario.from_dict(_small_document(
                hardware, {"fixed_spec": {"dp": 4, "tatp": 8}}))

    @pytest.mark.parametrize("hardware, fixed_spec", [
        ({}, {"dp": 2}),
        ({}, {"dp": 2, "tatp": 32}),
        ({"link_fault_rate": 0.1}, {"dp": 2, "tatp": 32}),
        ({"core_fault_rate": 0.1}, {"dp": 2, "tatp": 32}),
    ])
    def test_pinned_degree_must_fit_the_wafer(self, hardware, fixed_spec):
        scenario = Scenario.from_dict(_small_document(
            hardware, {"fixed_spec": fixed_spec}))
        with pytest.raises(ScenarioError, match="32 dies"):
            PlanService().evaluate(scenario)
