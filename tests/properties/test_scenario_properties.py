"""Property-based fuzzing of the Scenario/Portfolio document layer.

Hypothesis generates random *valid* spec trees and random *corrupted*
documents and pins the three contracts every serving layer leans on:

* serde is lossless and bit-identical — ``from_dict(to_dict()) == self``
  and the canonical JSON survives a full parse/re-serialise cycle
  unchanged (the plan server's store and dedup map key off that string);
* ``cache_key()`` is invariant to document key order and distinct for
  distinct scenarios (key equality iff scenario equality);
* malformed documents of any shape raise :class:`ScenarioError` /
  :class:`PortfolioError` — never a bare ``KeyError``/``AttributeError``
  traceback leaking out of the parser.

The suite stays fast (bounded example counts, no plan evaluation — these
properties are pure document-layer checks).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.portfolio import Portfolio, PortfolioAxis, PortfolioError
from repro.api.scenario import (
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)
from repro.parallelism.baselines import BaselineScheme
from repro.workloads.models import get_model, list_models

#: Shared profile: generous enough to explore, bounded enough for tier-1.
FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

MODELS = list_models()
SCHEMES = [scheme.value for scheme in BaselineScheme]
ENGINES = ["tcme", "gmap", "smap", "scattered"]

finite_floats = st.floats(min_value=1e-3, max_value=1e13,
                          allow_nan=False, allow_infinity=False)


def workloads() -> st.SearchStrategy:
    """Valid workload specs: zoo names or inline hyperparams + overrides."""
    inline = st.sampled_from(MODELS).map(
        lambda name: get_model(name).to_dict())
    return st.one_of(
        st.builds(
            WorkloadSpec,
            model=st.sampled_from(MODELS),
            batch_size=st.none() | st.integers(1, 4096),
            seq_length=st.none() | st.integers(16, 65536),
            num_layers=st.none() | st.integers(1, 256),
        ),
        st.builds(
            WorkloadSpec,
            hyperparams=inline,
            batch_size=st.none() | st.integers(1, 4096),
        ),
    )


#: Valid fabric specs on the default 4x8 geometry (kept in sync with the
#: registered topology zoo; mesh stays None half the time so the default
#: path is fuzzed too).
FABRIC_SPECS = [
    None,
    {"name": "mesh"},
    {"name": "torus"},
    {"name": "torus", "wrap_latency_factor": 2.0},
    {"name": "mesh3d", "layers": 2},
    {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 2},
    {"name": "express", "stride": 2},
]


def hardwares() -> st.SearchStrategy:
    """Valid hardware specs across all four mutually-exclusive shapes."""
    single_wafer = st.builds(
        HardwareSpec,
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        d2d_bandwidth=st.none() | finite_floats,
        hbm_capacity=st.none() | finite_floats,
        base_mfu=st.none() | st.floats(0.05, 1.0, allow_nan=False),
        num_microbatches=st.integers(1, 64),
        link_fault_rate=st.none() | st.floats(0.0, 1.0, allow_nan=False),
        core_fault_rate=st.none() | st.floats(0.0, 1.0, allow_nan=False),
    )
    multi_wafer = st.builds(
        HardwareSpec,
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        num_wafers=st.integers(2, 8),
        num_microbatches=st.integers(1, 64),
    )
    gpu_cluster = st.just(HardwareSpec(platform="gpu_cluster"))
    # Fabric shape: a topology-zoo spec on the default geometry (non-mesh
    # fabrics are single-wafer and fault-free by validation).
    fabric = st.builds(
        HardwareSpec,
        topology=st.sampled_from(FABRIC_SPECS).map(
            lambda spec: dict(spec) if spec is not None else None),
        num_microbatches=st.integers(1, 64),
    )
    return st.one_of(single_wafer, multi_wafer, gpu_cluster, fabric)


def solvers(pinned: bool = True) -> st.SearchStrategy:
    """Valid solver specs, with pinned parallel specs only when ``pinned``."""
    fixed_specs = st.fixed_dictionaries(
        {},
        optional={
            "dp": st.sampled_from([1, 2, 4, 8]),
            "tp": st.sampled_from([1, 2, 4, 8]),
            "sp": st.sampled_from([1, 2, 4]),
            "tatp": st.sampled_from([1, 2, 4, 8, 16]),
            "pp": st.sampled_from([1, 2, 4]),
            "sp_within_tp": st.booleans(),
            "zero1_optimizer": st.booleans(),
        })
    return st.builds(
        SolverSpec,
        scheme=st.sampled_from(SCHEMES),
        engine=st.sampled_from(ENGINES),
        max_tatp=st.sampled_from([1, 4, 16, 32]),
        pipeline_degrees=st.lists(st.integers(1, 8), min_size=1,
                                  max_size=3).map(tuple),
        max_candidates=st.none() | st.integers(1, 64),
        num_finalists=st.integers(1, 16),
        ga_generations=st.none() | st.integers(1, 10),
        seed=st.integers(0, 2**31 - 1),
        fixed_spec=st.none() | fixed_specs if pinned else st.none(),
    )


def scenarios() -> st.SearchStrategy:
    # Only single-wafer hardware takes a pinned spec (Scenario validation).
    return hardwares().flatmap(lambda hardware: st.builds(
        Scenario, workload=workloads(), hardware=st.just(hardware),
        solver=solvers(pinned=hardware.platform == "wafer"
                       and hardware.num_wafers == 1)))


def _reorder(value):
    """The same JSON value with every object's key order reversed."""
    if isinstance(value, dict):
        return {key: _reorder(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


class TestScenarioRoundTrip:
    @FAST
    @given(scenario=scenarios())
    def test_dict_round_trip_is_lossless(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @FAST
    @given(scenario=scenarios())
    def test_json_round_trip_is_bit_identical(self, scenario):
        text = scenario.to_json()
        reparsed = Scenario.from_json(text)
        assert reparsed == scenario
        assert reparsed.to_json() == text
        assert reparsed.canonical_json() == scenario.canonical_json()

    @FAST
    @given(scenario=scenarios())
    def test_canonical_json_parses_back_to_the_document(self, scenario):
        assert json.loads(scenario.canonical_json()) == scenario.to_dict()


class TestCacheKey:
    @FAST
    @given(scenario=scenarios())
    def test_cache_key_is_order_invariant(self, scenario):
        shuffled = _reorder(scenario.to_dict())
        assert list(shuffled) != list(scenario.to_dict())  # really reordered
        assert Scenario.from_dict(shuffled).cache_key() \
            == scenario.cache_key()

    @FAST
    @given(first=scenarios(), second=scenarios())
    def test_key_equality_iff_scenario_equality(self, first, second):
        assert (first.cache_key() == second.cache_key()) \
            == (first == second)

    @FAST
    @given(scenario=scenarios(), delta=st.integers(1, 1000))
    def test_any_field_perturbation_changes_the_key(self, scenario, delta):
        import dataclasses

        perturbed = dataclasses.replace(
            scenario,
            solver=dataclasses.replace(scenario.solver,
                                       seed=scenario.solver.seed + delta))
        assert perturbed.cache_key() != scenario.cache_key()


def _corruptions() -> st.SearchStrategy:
    """Corrupted scenario documents (plus arbitrary JSON garbage)."""
    json_garbage = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=10)

    def corrupt(base, mode, key, value):
        document = base.to_dict()
        if mode == "unknown_top_key":
            document[key or "bogus"] = value
        elif mode == "unknown_section_key":
            document["workload"][key or "bogus"] = value
        elif mode == "bad_schema_version":
            document["schema_version"] = value
        elif mode == "missing_schema_version":
            del document["schema_version"]
        elif mode == "scalar_section":
            document["hardware"] = value
        elif mode == "wrong_typed_field":
            document["hardware"]["rows"] = str(value)
        elif mode == "bad_platform":
            document["hardware"]["platform"] = key or "tpu"
        elif mode == "bad_scheme":
            document["solver"]["scheme"] = key or "magic"
        return document

    corrupted = st.builds(
        corrupt,
        base=scenarios(),
        mode=st.sampled_from([
            "unknown_top_key", "unknown_section_key", "bad_schema_version",
            "missing_schema_version", "scalar_section", "wrong_typed_field",
            "bad_platform", "bad_scheme"]),
        key=st.text(max_size=8),
        value=st.none() | st.integers() | st.text(max_size=8),
    )
    return st.one_of(corrupted, json_garbage)


class TestMalformedDocuments:
    @FAST
    @given(document=_corruptions())
    def test_malformed_documents_raise_structured_errors(self, document):
        # A corrupted document must either still be a valid scenario (some
        # corruptions are no-ops, e.g. schema_version set back to 1) or
        # raise ScenarioError — never any other exception type, and never
        # one smuggling a traceback into its message.
        try:
            Scenario.from_dict(document)
        except ScenarioError as error:
            assert "Traceback" not in str(error)

    @FAST
    @given(document=_corruptions())
    def test_malformed_portfolio_documents_raise_structured_errors(
            self, document):
        try:
            Portfolio.from_dict(document)
        except PortfolioError as error:
            assert "Traceback" not in str(error)


def portfolios() -> st.SearchStrategy:
    """Small valid portfolios over scenario fields."""
    model_axis = st.lists(
        st.sampled_from(MODELS), min_size=1, max_size=3, unique=True
    ).map(lambda models: PortfolioAxis(
        name="model", path="workload.model", values=tuple(models)))
    rows_axis = st.lists(
        st.integers(1, 8), min_size=1, max_size=3, unique=True
    ).map(lambda rows: PortfolioAxis(
        name="rows", path="hardware.rows", values=tuple(rows)))
    note_axis = st.lists(
        st.text(max_size=6), min_size=1, max_size=3, unique=True
    ).map(lambda notes: PortfolioAxis(name="note", values=tuple(notes)))
    return st.builds(
        lambda axes, description: Portfolio(
            name="fuzz", axes=axes, description=description),
        axes=st.tuples(model_axis, rows_axis, note_axis),
        description=st.text(max_size=16),
    )


def _portfolio_corruptions() -> st.SearchStrategy:
    """Corrupted *portfolio* documents (shapes scenario fuzzing misses)."""

    def corrupt(portfolio, mode, value):
        document = portfolio.to_dict()
        if mode == "non_string_path":
            document["axes"][0]["path"] = value
        elif mode == "bad_base_section":
            document["base"] = {"schema_version": 1,
                                "workload": {"bogus": value}}
        elif mode == "scalar_base":
            document["base"] = value
        elif mode == "scalar_axes":
            document["axes"] = value
        elif mode == "garbage_axis":
            document["axes"] = [value]
        elif mode == "bad_expansion":
            document["expansion"] = value
        return document

    return st.builds(
        corrupt,
        portfolio=portfolios(),
        mode=st.sampled_from([
            "non_string_path", "bad_base_section", "scalar_base",
            "scalar_axes", "garbage_axis", "bad_expansion"]),
        value=st.none() | st.integers() | st.text(max_size=6)
        | st.lists(st.integers(), max_size=2),
    )


class TestPortfolioProperties:
    @FAST
    @given(document=_portfolio_corruptions())
    def test_corrupted_portfolio_documents_raise_structured_errors(
            self, document):
        try:
            Portfolio.from_dict(document)
        except PortfolioError as error:
            assert "Traceback" not in str(error)

    @FAST
    @given(portfolio=portfolios())
    def test_round_trip_is_lossless(self, portfolio):
        assert Portfolio.from_dict(portfolio.to_dict()) == portfolio
        assert Portfolio.from_json(portfolio.to_json()) == portfolio

    @FAST
    @given(portfolio=portfolios())
    def test_expansion_is_deterministic_and_complete(self, portfolio):
        points = portfolio.expand()
        assert len(points) == portfolio.num_points()
        assert [point.index for point in points] == list(range(len(points)))
        again = Portfolio.from_dict(portfolio.to_dict()).expand()
        assert [point.params for point in again] \
            == [point.params for point in points]
        assert [point.scenario for point in again] \
            == [point.scenario for point in points]

    @FAST
    @given(portfolio=portfolios())
    def test_point_keys_agree_with_scenario_equality(self, portfolio):
        points = portfolio.expand()
        keys = [point.cache_key() for point in points]
        for i, left in enumerate(points):
            for j, right in enumerate(points):
                assert (keys[i] == keys[j]) \
                    == (left.scenario == right.scenario)


@pytest.mark.parametrize("document", [None, 7, "text", [1, 2]])
def test_non_object_documents_are_scenario_errors(document):
    with pytest.raises(ScenarioError):
        Scenario.from_dict(document)
    with pytest.raises(PortfolioError):
        Portfolio.from_dict(document)
