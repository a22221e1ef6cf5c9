"""Tests for the framework's search paths, metrics, and fault tolerance.

The single-wafer, ablation, solver, multi-wafer and fault paths are driven
the way every caller drives them: a :class:`~repro.api.scenario.Scenario`
evaluated by :class:`~repro.api.service.PlanService`.
"""

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
from repro.api.service import PlanService, validate_result_payload
from repro.core.framework import downsample_specs
from repro.core.metrics import (
    average_speedup,
    geometric_mean,
    normalize_breakdown,
    normalize_to,
    speedup,
)
from repro.core.multiwafer import pipeline_degrees_for
from repro.hardware.wafer import WaferScaleChip
from repro.parallelism.baselines import BaselineScheme
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import analyze_model
from repro.simulation.simulator import WaferSimulator

_GB = 1024 ** 3


@pytest.fixture(scope="module")
def service():
    return PlanService()


def _baseline(service, scheme, engine, model):
    """The single-wafer search of ``scheme`` + ``engine`` on the default wafer."""
    return service.evaluate(Scenario(
        workload=WorkloadSpec(model=model),
        solver=SolverSpec(scheme=scheme.value, engine=engine)))


def _framework(service, model, **switches):
    """The TEMP framework's search under its ablation ``switches``."""
    return service.evaluate(Scenario(
        workload=WorkloadSpec(model=model),
        solver=SolverSpec.for_framework(**switches)))


def _multiwafer(service, solver):
    """gpt3-175b pipelined across two wafers with 8 microbatches."""
    return service.evaluate(Scenario(
        workload=WorkloadSpec(model="gpt3-175b"),
        hardware=HardwareSpec(num_wafers=2, num_microbatches=8),
        solver=solver))


def _degree(label, name):
    """One degree of a spec label like ``(dp=4,tp=8,sp=1,tatp=1)``.

    Labels omit trivial cp, fsdp and pp degrees, so those read as 1.
    """
    match = re.search(rf"\b{name}=(\d+)", label)
    return int(match.group(1)) if match else 1


def _total_degree(label):
    """The device count of a spec label (a TP-coupled sp adds none)."""
    return math.prod(int(degree) for degree in re.findall(r"=(\d+)", label))


class TestMetrics:
    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_normalize_to_default_reference_is_max(self):
        normalized = normalize_to({"a": 2.0, "b": 4.0})
        assert normalized == {"a": 0.5, "b": 1.0}

    def test_normalize_to_explicit_reference(self):
        normalized = normalize_to({"a": 2.0, "b": 4.0}, reference_key="a")
        assert normalized["b"] == 2.0

    def test_normalize_breakdown_sums_to_one(self):
        normalized = normalize_breakdown({"x": 3.0, "y": 1.0})
        assert sum(normalized.values()) == pytest.approx(1.0)

    def test_average_speedup(self):
        assert average_speedup([2.0, 8.0], [1.0, 2.0]) == pytest.approx(
            geometric_mean([2.0, 4.0]))
        with pytest.raises(ValueError):
            average_speedup([1.0], [1.0, 2.0])


class TestBaselineSearch:
    @pytest.mark.parametrize("scheme", [BaselineScheme.MEGATRON1,
                                        BaselineScheme.MESP,
                                        BaselineScheme.FSDP])
    def test_every_scheme_produces_a_result(self, scheme, service):
        result = _baseline(service, scheme, "smap", "gpt3-6.7b")
        assert math.isfinite(result.step_time)
        assert result.spec is not None
        assert result.candidates_evaluated > 0
        assert result.label.endswith("+smap")

    def test_best_spec_respects_scheme_space(self, service):
        mega = _baseline(service, BaselineScheme.MEGATRON1, "smap",
                         "gpt3-6.7b")
        assert _degree(mega.spec, "tatp") == 1
        assert _degree(mega.spec, "fsdp") == 1
        fsdp = _baseline(service, BaselineScheme.FSDP, "smap", "gpt3-6.7b")
        assert _degree(fsdp.spec, "tp") == 1

    def test_megatron_oom_on_70b(self, service):
        result = _baseline(service, BaselineScheme.MEGATRON1, "smap",
                           "llama3-70b")
        assert result.oom

    def test_fsdp_never_ooms_on_table_ii(self, service):
        for name in ("gpt3-6.7b", "llama3-70b", "gpt3-175b", "opt-175b"):
            result = _baseline(service, BaselineScheme.FSDP, "smap", name)
            assert not result.oom, name

    def test_non_oom_result_fits_capacity(self, service, wafer):
        result = _baseline(service, BaselineScheme.MESP, "gmap",
                           "llama3-70b")
        assert not result.oom
        assert result.memory_gb <= wafer.config.die.hbm.capacity / _GB


class TestDownsample:
    def test_keeps_both_endpoints(self):
        specs = list(range(10))
        for limit in (2, 3, 4, 7, 9):
            sampled = downsample_specs(specs, limit)
            assert len(sampled) == limit
            assert sampled[0] == specs[0]
            assert sampled[-1] == specs[-1], limit
            assert sampled == sorted(set(sampled))  # strictly increasing

    def test_limit_of_one_keeps_first(self):
        assert downsample_specs(list(range(5)), 1) == [0]

    def test_no_op_when_limit_covers_list(self):
        specs = list(range(4))
        assert downsample_specs(specs, 4) == specs
        assert downsample_specs(specs, 10) == specs


class TestTEMPFramework:
    def test_temp_beats_every_baseline_on_large_model(self, service):
        temp = _framework(service, "llama3-70b")
        for scheme in (BaselineScheme.MEGATRON1, BaselineScheme.MESP,
                       BaselineScheme.FSDP):
            for engine in ("smap", "gmap"):
                baseline = _baseline(service, scheme, engine, "llama3-70b")
                if baseline.oom:
                    continue
                assert temp.step_time <= baseline.step_time * 1.001

    def test_temp_uses_tatp_on_large_models(self, service):
        result = _framework(service, "llama3-70b")
        assert _degree(result.spec, "tatp") > 1
        assert not result.oom

    def test_temp_memory_not_above_best_baseline(self, service):
        temp = _framework(service, "llama3-70b")
        mesp = _baseline(service, BaselineScheme.MESP, "gmap", "llama3-70b")
        assert temp.memory_gb <= mesp.memory_gb * 1.05

    def test_ablation_switches_change_engine_and_space(self):
        base = SolverSpec.for_framework(enable_tatp=False, enable_tcme=False)
        assert base.engine == "smap"
        assert base.max_tatp == 1
        full = SolverSpec.for_framework()
        assert full.engine == "tcme"

    def test_ablation_is_monotone(self, service):
        base = _framework(service, "llama3-70b", enable_tatp=False,
                          enable_tcme=False)
        with_tatp = _framework(service, "llama3-70b", enable_tatp=True,
                               enable_tcme=False)
        full = _framework(service, "llama3-70b")
        assert with_tatp.throughput >= base.throughput * 0.999
        assert full.throughput >= with_tatp.throughput * 0.999

    def test_solver_path_agrees_with_enumeration(self, service):
        outcome = service.solve(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            solver=SolverSpec.for_framework()))
        assert not outcome.oom
        assert _total_degree(outcome.spec) == 32


class TestMultiWafer:
    def test_pipeline_degree_rules(self):
        assert pipeline_degrees_for(BaselineScheme.TEMP, 2) == [2, 4]
        assert pipeline_degrees_for(BaselineScheme.MESP, 2) == [2, 4, 8]
        with pytest.raises(ValueError):
            pipeline_degrees_for(BaselineScheme.TEMP, 0)

    def test_temp_beats_mesp_on_two_wafers(self, service):
        temp = _multiwafer(service, SolverSpec.for_framework())
        mesp = _multiwafer(service, SolverSpec(scheme="mesp", engine="gmap"))
        assert not temp.oom
        assert temp.step_time <= mesp.step_time * 1.001
        assert temp.throughput >= mesp.throughput * 0.999

    def test_invalid_wafer_count(self):
        with pytest.raises(ScenarioError):  # a ValueError
            HardwareSpec(num_wafers=0)

    def test_candidate_that_fits_only_checkpointed_runs_checkpointed(
            self, service):
        # On 4 wafers, llama3-405b's fastest FSDP configuration needs 121.3
        # GB per die as planned and 56.35 GB checkpointed; with 72 GB of
        # HBM the search must run it checkpointed, as the single-wafer
        # search would.
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="llama3-405b", seq_length=4096),
            hardware=HardwareSpec(num_wafers=4, num_microbatches=16),
            solver=SolverSpec(scheme="fsdp", engine="gmap")))
        spec = ParallelSpec(dp=2, fsdp=16, pp=4)
        assert result.spec == spec.label()
        assert not result.oom
        assert result.memory_gb == pytest.approx(56.35, abs=0.01)
        model = WorkloadSpec(model="llama3-405b", seq_length=4096).resolve()
        capacity = WaferScaleChip().config.die.hbm.capacity
        assert capacity / _GB == pytest.approx(72)
        plain = analyze_model(model, spec, num_microbatches=16)
        assert plain.memory.total / _GB == pytest.approx(121.3, abs=0.05)

    def test_no_candidate_left_after_pruning_reports_oom(self, service):
        # 1 GB of HBM per die: pruning drops every pipelined configuration,
        # so the least-infeasible one is simulated and reported as OOM.
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-175b"),
                            hardware=HardwareSpec(num_wafers=2,
                                                  hbm_capacity=1e9))
        payload = service.evaluate(scenario).to_dict()
        assert validate_result_payload(payload) == []
        assert payload["kind"] == "multi_wafer"
        assert payload["oom"] is True
        assert payload["spec"] is not None
        assert payload["step_time"] is not None

    def test_all_oom_reports_least_memory_candidate(self, service):
        # 24 GB of HBM per die: pruning keeps pipelined configurations but
        # none fits, so the pruned candidate with the least memory pressure
        # is reported, as on a single wafer.
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-175b"),
                            hardware=HardwareSpec(num_wafers=2,
                                                  hbm_capacity=24e9))
        payload = service.evaluate(scenario).to_dict()
        assert validate_result_payload(payload) == []
        assert payload["oom"] is True
        assert payload["spec"] == "(dp=1,tp=1,sp=1,tatp=32,pp=2)"
        assert payload["memory_gb"] == pytest.approx(31.68, abs=0.01)

    def test_max_candidates_caps_the_candidates(self, service):
        # The cap subsamples the pruned candidates the way the single-wafer
        # search does, and candidates_evaluated counts what is considered.
        def evaluate(**solver):
            return service.evaluate(Scenario(
                workload=WorkloadSpec(model="gpt3-175b"),
                hardware=HardwareSpec(num_wafers=2),
                solver=SolverSpec(**solver)))

        assert evaluate().candidates_evaluated > 3
        capped = evaluate(max_candidates=3)
        assert capped.candidates_evaluated == 3
        assert capped.kind == "multi_wafer"


class TestFaultTolerance:
    """The fault path on gpt3-6.7b pinned to (DP=4, TATP=8)."""

    @staticmethod
    def _faulty(service, seed, engine="tcme", **rates):
        return service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(**rates),
            solver=SolverSpec(seed=seed, engine=engine,
                              fixed_spec={"dp": 4, "tatp": 8})))

    def test_no_faults_means_no_loss(self, service):
        result = self._faulty(service, 0, core_fault_rate=0.0)
        assert result.kind == "fault"
        assert result.relative_throughput == pytest.approx(1.0)

    def test_core_faults_degrade_gracefully(self, service):
        result = self._faulty(service, 3, core_fault_rate=0.25)
        assert 0.6 < result.relative_throughput < 1.0

    def test_rebalancing_recovers_throughput(self, service, gpt3_6b):
        hardware = HardwareSpec(core_fault_rate=0.25)
        result = self._faulty(service, 3, core_fault_rate=0.25)
        # The same faulty chip without re-balancing: the slowest die gates
        # the step.
        faulty = WaferScaleChip(
            hardware.resolve_config(),
            fault_model=hardware.resolve_fault_model(seed=3))
        plan = analyze_model(gpt3_6b, ParallelSpec(dp=4, tatp=8),
                             num_devices=32)
        unbalanced = WaferSimulator(faulty).simulate(plan, engine="tcme")
        assert result.throughput > unbalanced.throughput

    def test_moderate_link_faults_survive(self, service):
        result = self._faulty(service, 2, link_fault_rate=0.15)
        assert result.relative_throughput > 0.5

    def test_extreme_link_faults_hit_cliff(self, service):
        result = self._faulty(service, 2, link_fault_rate=0.6)
        assert result.relative_throughput < 0.5

    def test_checkpoint_fallback_matches_the_pinned_spec_path(self, service):
        # llama3-70b at (DP=4, TP=8) fits the die only with activation
        # checkpointing: a fault study at rate 0 runs the plan the
        # pinned-spec path runs, and neither runs it without the fallback.
        fields = ("spec", "oom", "memory_gb", "step_time")
        for fallback in (True, False):
            solver = SolverSpec(fixed_spec={"dp": 4, "tp": 8},
                                allow_checkpoint_fallback=fallback)
            workload = WorkloadSpec(model="llama3-70b")
            fault = service.evaluate(Scenario(
                workload=workload, hardware=HardwareSpec(core_fault_rate=0.0),
                solver=solver)).to_dict()
            pinned = service.evaluate(Scenario(
                workload=workload, solver=solver)).to_dict()
            assert {key: fault[key] for key in fields} \
                == {key: pinned[key] for key in fields}
            assert fault["oom"] is not fallback
            assert fault["relative_throughput"] == pytest.approx(1.0)
