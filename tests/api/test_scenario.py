"""Serde contract of the Scenario API (round-trip, strictness, versioning)."""

import json
from dataclasses import replace

import pytest

from repro.api.scenario import (
    SCHEMA_VERSION,
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)
from repro.runner import registry
from repro.workloads.models import get_model


class TestRegistryGridRoundTrip:
    """Every registered figure's grids map to JSON-round-trippable scenarios."""

    @pytest.mark.parametrize("figure", registry.figure_ids())
    def test_every_figure_registers_a_scenario_builder(self, figure):
        assert registry.get_experiment(figure).scenario is not None

    @pytest.mark.parametrize("figure", registry.figure_ids())
    @pytest.mark.parametrize("reduced", [False, True])
    def test_default_and_reduced_grids_round_trip(self, figure, reduced):
        experiment = registry.get_experiment(figure)
        cells = experiment.cells(reduced)
        assert cells, f"{figure} has an empty grid"
        for params in cells:
            scenario = experiment.scenario_for(**params)
            document = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(document) == scenario, (figure, params)

    def test_unregistered_builder_raises(self):
        experiment = replace(registry.get_experiment("fig13"), scenario=None)
        with pytest.raises(ValueError, match="no scenario builder"):
            experiment.scenario_for(model="gpt3-6.7b", system="TEMP")


class TestRoundTrip:
    def test_json_string_round_trip(self):
        scenario = Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b", seq_length=4096),
            hardware=HardwareSpec(rows=6, cols=8),
            solver=SolverSpec(scheme="mesp", engine="gmap",
                              pipeline_degrees=(1, 2),
                              fixed_spec={"dp": 4, "tatp": 8}),
        )
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_inline_hyperparams_round_trip_and_resolve(self):
        inline = get_model("gpt3-6.7b").to_dict()
        scenario = Scenario(workload=WorkloadSpec(hyperparams=inline))
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.workload.resolve() == get_model("gpt3-6.7b")

    def test_workload_overrides_apply(self):
        workload = WorkloadSpec(model="gpt3-6.7b", batch_size=8,
                                seq_length=512, num_layers=2)
        model = workload.resolve()
        assert (model.batch_size, model.seq_length, model.num_layers) == \
            (8, 512, 2)

    def test_missing_sections_take_defaults(self):
        scenario = Scenario.from_dict({"schema_version": SCHEMA_VERSION})
        assert scenario == Scenario()

    def test_pipeline_degrees_normalise_to_tuple(self):
        spec = SolverSpec(pipeline_degrees=[1, 2])
        assert spec.pipeline_degrees == (1, 2)


class TestStrictness:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys: extra"):
            Scenario.from_dict({"schema_version": SCHEMA_VERSION, "extra": 1})

    @pytest.mark.parametrize("section", ["workload", "hardware", "solver"])
    def test_unknown_section_key_rejected(self, section):
        document = {"schema_version": SCHEMA_VERSION, section: {"bogus": 1}}
        with pytest.raises(ScenarioError, match=f"unknown {section} keys"):
            Scenario.from_dict(document)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(ScenarioError, match="missing 'schema_version'"):
            Scenario.from_dict({"workload": {"model": "gpt3-6.7b"}})

    def test_schema_version_mismatch_rejected(self):
        document = Scenario().to_dict()
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ScenarioError, match="not supported"):
            Scenario.from_dict(document)

    def test_constructor_rejects_foreign_schema_version(self):
        with pytest.raises(ScenarioError, match="not supported"):
            Scenario(schema_version=SCHEMA_VERSION + 1)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            Scenario.from_dict(["not", "a", "mapping"])

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            Scenario.from_json("{not json")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scheme"):
            SolverSpec(scheme="alpa")

    @pytest.mark.parametrize("kwargs,field", [
        ({"max_candidates": 0}, "max_candidates"),
        ({"max_candidates": -3}, "max_candidates"),
        ({"max_tatp": 0}, "max_tatp"),
        ({"num_finalists": 0}, "num_finalists"),
        ({"pipeline_degrees": ()}, "pipeline_degrees"),
        ({"pipeline_degrees": (0,)}, "pipeline_degrees"),
        ({"pipeline_degrees": (1, -2)}, "pipeline_degrees"),
        ({"ga_generations": 0}, "ga_generations"),
        ({"ga_generations": -3}, "ga_generations"),
    ])
    def test_nonsensical_solver_values_rejected(self, kwargs, field):
        with pytest.raises(ScenarioError, match=field):
            SolverSpec(**kwargs)
        # The document path reports the same problem, not a later crash.
        document = {"schema_version": SCHEMA_VERSION,
                    "solver": {key: list(value) if isinstance(value, tuple)
                               else value for key, value in kwargs.items()}}
        with pytest.raises(ScenarioError, match=field):
            Scenario.from_dict(document)

    def test_smallest_solver_values_accepted(self):
        spec = SolverSpec(max_candidates=1, max_tatp=1, num_finalists=1,
                          pipeline_degrees=(1,))
        assert spec.max_candidates == 1

    def test_unknown_fixed_spec_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fixed_spec keys"):
            SolverSpec(fixed_spec={"warp": 9})

    def test_unknown_platform_rejected(self):
        with pytest.raises(ScenarioError, match="platform"):
            HardwareSpec(platform="tpu_pod")

    def test_fault_rate_bounds(self):
        with pytest.raises(ScenarioError, match="link_fault_rate"):
            HardwareSpec(link_fault_rate=1.5)

    def test_workload_needs_exactly_one_source(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            WorkloadSpec().resolve()
        with pytest.raises(ScenarioError, match="exactly one"):
            WorkloadSpec(model="gpt3-6.7b",
                         hyperparams={"name": "x"}).resolve()

    def test_unknown_model_name_mentions_zoo(self):
        with pytest.raises(ScenarioError, match="unknown model"):
            WorkloadSpec(model="gpt5").resolve()

    @pytest.mark.parametrize("section,raw", [
        ("hardware", {"rows": "4"}),          # TypeError inside validation
        ("hardware", {"num_wafers": None}),
        ("solver", {"pipeline_degrees": [1, "two"]}),
    ])
    def test_wrong_typed_field_values_become_scenario_errors(self, section,
                                                             raw):
        document = {"schema_version": SCHEMA_VERSION, section: raw}
        with pytest.raises(ScenarioError,
                           match=f"invalid {section} section"):
            Scenario.from_dict(document)


class TestResolution:
    def test_for_framework_dedups_scheme_resolution(self):
        full = SolverSpec.for_framework()
        assert (full.scheme, full.engine, full.max_tatp) == ("temp", "tcme", 32)
        no_tatp = SolverSpec.for_framework(enable_tatp=False)
        assert (no_tatp.scheme, no_tatp.max_tatp) == ("fsdp", 1)
        no_tcme = SolverSpec.for_framework(enable_tcme=False)
        assert no_tcme.engine == "smap"

    def test_hardware_resolves_geometry_overrides(self):
        hardware = HardwareSpec(rows=6, cols=8, d2d_bandwidth=2.0e12,
                                hbm_capacity=64.0 * 1024 ** 3)
        config = hardware.resolve_config()
        assert (config.rows, config.cols) == (6, 8)
        assert config.d2d.bandwidth == 2.0e12
        assert config.die.hbm.capacity == 64.0 * 1024 ** 3
        assert hardware.resolve_wafer().num_dies == 48

    def test_simulator_override_only_when_set(self):
        assert HardwareSpec().resolve_simulator() is None
        assert HardwareSpec(base_mfu=0.5).resolve_simulator().base_mfu == 0.5

    def test_fault_model_sampling_is_seeded(self):
        hardware = HardwareSpec(link_fault_rate=0.2)
        first = hardware.resolve_fault_model(seed=7)
        second = hardware.resolve_fault_model(seed=7)
        assert first.failed_links == second.failed_links
        assert first.failed_links  # 20% of a 4x8 mesh is non-empty

    def test_fixed_spec_resolves_to_parallel_spec(self):
        spec = SolverSpec(fixed_spec={"dp": 4, "tatp": 8}).resolve_fixed_spec()
        assert (spec.dp, spec.tatp, spec.total_degree) == (4, 8, 32)
        with pytest.raises(ScenarioError, match="no fixed_spec"):
            SolverSpec().resolve_fixed_spec()

    def test_with_fixed_spec_round_trips_flags(self):
        from repro.parallelism.spec import ParallelSpec
        pinned = Scenario().with_fixed_spec(
            ParallelSpec(dp=4, tp=8, zero1_optimizer=False))
        resolved = pinned.solver.resolve_fixed_spec()
        assert resolved == ParallelSpec(dp=4, tp=8, zero1_optimizer=False)
