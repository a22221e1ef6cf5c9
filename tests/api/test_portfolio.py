"""Tests of the typed Portfolio spec: serde, expansion, figure portfolios."""

import json

import pytest

from repro.api.portfolio import (
    Portfolio,
    PortfolioAxis,
    PortfolioError,
    portfolio_from_scenarios,
)
from repro.api.scenario import SCHEMA_VERSION, Scenario, WorkloadSpec
from repro.runner.registry import all_experiments, get_experiment

#: Figures ``repro sweep`` accepts: every one registered with a row mapper.
SWEEPABLE = [experiment.figure for experiment in all_experiments()
             if experiment.row is not None]


def _portfolio(**overrides):
    """A small two-axis cartesian portfolio."""
    kwargs = dict(
        name="demo",
        axes=(
            PortfolioAxis(name="model", path="workload.model",
                          values=("gpt3-6.7b", "llama3-70b")),
            PortfolioAxis(name="rows", path="hardware.rows", values=(2, 4)),
        ),
    )
    kwargs.update(overrides)
    return Portfolio(**kwargs)


class TestExpansion:
    def test_cartesian_order_first_axis_outermost(self):
        points = _portfolio().expand()
        assert [point.params for point in points] == [
            {"model": "gpt3-6.7b", "rows": 2},
            {"model": "gpt3-6.7b", "rows": 4},
            {"model": "llama3-70b", "rows": 2},
            {"model": "llama3-70b", "rows": 4},
        ]
        assert points[0].scenario.workload.model == "gpt3-6.7b"
        assert points[3].scenario.hardware.rows == 4
        assert [point.index for point in points] == [0, 1, 2, 3]

    def test_zip_advances_axes_together(self):
        portfolio = _portfolio(expansion="zip")
        points = portfolio.expand()
        assert [point.params for point in points] == [
            {"model": "gpt3-6.7b", "rows": 2},
            {"model": "llama3-70b", "rows": 4},
        ]

    def test_zip_rejects_unequal_axes(self):
        with pytest.raises(PortfolioError, match="equal lengths"):
            _portfolio(
                expansion="zip",
                axes=(
                    PortfolioAxis(name="model", path="workload.model",
                                  values=("gpt3-6.7b",)),
                    PortfolioAxis(name="rows", path="hardware.rows",
                                  values=(2, 4)),
                ))

    def test_section_axis_swaps_the_whole_section(self):
        portfolio = Portfolio(
            name="sections",
            axes=(
                PortfolioAxis(
                    name="solver", path="solver",
                    values=({"scheme": "mesp", "engine": "gmap"},),
                    labels=("MeSP+GMap",)),
            ),
            base=Scenario(workload=WorkloadSpec(model="gpt3-6.7b")),
        )
        (point,) = portfolio.expand()
        assert point.scenario.solver.scheme == "mesp"
        assert point.scenario.workload.model == "gpt3-6.7b"
        assert point.params == {"solver": "MeSP+GMap"}

    def test_annotation_axis_records_without_touching_the_scenario(self):
        portfolio = _portfolio(
            expansion="zip",
            axes=(
                PortfolioAxis(name="model", path="workload.model",
                              values=("gpt3-6.7b", "llama3-70b")),
                PortfolioAxis(name="label", values=("small", "large")),
            ))
        points = portfolio.expand()
        assert points[1].params == {"model": "llama3-70b", "label": "large"}
        assert points[1].scenario.hardware.rows == 4  # base untouched

    def test_unrecorded_axis_applies_but_stays_out_of_params(self):
        portfolio = _portfolio(
            expansion="zip",
            axes=(
                PortfolioAxis(name="model", path="workload.model",
                              values=("gpt3-6.7b", "llama3-70b")),
                PortfolioAxis(name="rows", path="hardware.rows",
                              values=(2, 4), record=False),
            ))
        points = portfolio.expand()
        assert points[1].params == {"model": "llama3-70b"}
        assert points[1].scenario.hardware.rows == 4

    def test_invalid_point_is_a_portfolio_error_naming_the_point(self):
        portfolio = _portfolio(
            axes=(
                PortfolioAxis(name="rows", path="hardware.rows",
                              values=(2, -1)),
            ),
            base=Scenario(workload=WorkloadSpec(model="gpt3-6.7b")))
        with pytest.raises(PortfolioError, match="point 1"):
            portfolio.expand()

    def test_max_points_cap(self):
        with pytest.raises(PortfolioError, match="over the cap"):
            _portfolio().expand(max_points=3)
        assert len(_portfolio().expand(max_points=4)) == 4

    def test_num_points(self):
        assert _portfolio().num_points() == 4
        assert _portfolio(expansion="zip").num_points() == 2

    def test_duplicate_points_share_a_cache_key(self):
        portfolio = _portfolio(
            expansion="zip",
            axes=(
                PortfolioAxis(name="model", path="workload.model",
                              values=("gpt3-6.7b", "gpt3-6.7b")),
                PortfolioAxis(name="step", values=(1, 2)),
            ))
        first, second = portfolio.expand()
        assert first.cache_key() == second.cache_key()
        assert first.params != second.params


class TestValidation:
    def test_unknown_field_path_rejected(self):
        with pytest.raises(PortfolioError, match="names no workload field"):
            PortfolioAxis(name="bad", path="workload.nope", values=(1,))

    def test_unknown_section_rejected(self):
        with pytest.raises(PortfolioError, match="does not start with"):
            PortfolioAxis(name="bad", path="simulator.mfu", values=(1,))

    def test_section_axis_requires_object_values(self):
        with pytest.raises(PortfolioError, match="must be an object"):
            PortfolioAxis(name="bad", path="solver", values=("temp",))

    def test_empty_axis_rejected(self):
        with pytest.raises(PortfolioError, match="no values"):
            PortfolioAxis(name="empty", values=())

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(PortfolioError, match="labels"):
            PortfolioAxis(name="bad", values=(1, 2), labels=("one",))

    def test_pointless_axis_rejected(self):
        with pytest.raises(PortfolioError, match="neither applies"):
            PortfolioAxis(name="bad", values=(1,), path=None, record=False)

    def test_non_json_value_rejected(self):
        with pytest.raises(PortfolioError, match="not strict JSON"):
            PortfolioAxis(name="bad", values=(float("inf"),))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(PortfolioError, match="duplicate axis names"):
            _portfolio(axes=(
                PortfolioAxis(name="model", path="workload.model",
                              values=("gpt3-6.7b",)),
                PortfolioAxis(name="model", values=("again",)),
            ))

    def test_no_axes_rejected(self):
        with pytest.raises(PortfolioError, match="no axes"):
            Portfolio(name="empty", axes=())

    def test_unknown_expansion_rejected(self):
        with pytest.raises(PortfolioError, match="expansion"):
            _portfolio(expansion="diagonal")


class TestSerde:
    def test_round_trip_is_lossless(self):
        # Exercise every axis feature: labels, unrecorded axes, annotation
        # axes, and a non-default expansion mode.
        portfolio = _portfolio(
            description="round trip",
            axes=(
                PortfolioAxis(name="model", path="workload.model",
                              values=("gpt3-6.7b", "llama3-70b"),
                              labels=("small", "large")),
                PortfolioAxis(name="rows", path="hardware.rows",
                              values=(2, 4), record=False),
                PortfolioAxis(name="note", values=("a", "b")),
            ),
            expansion="zip")
        parsed = Portfolio.from_dict(portfolio.to_dict())
        assert parsed == portfolio
        assert Portfolio.from_json(portfolio.to_json()) == portfolio
        assert (json.dumps(parsed.to_dict(), sort_keys=True)
                == json.dumps(portfolio.to_dict(), sort_keys=True))

    def test_unknown_keys_rejected_at_every_level(self):
        document = _portfolio().to_dict()
        document["bogus"] = 1
        with pytest.raises(PortfolioError, match="unknown portfolio keys"):
            Portfolio.from_dict(document)
        document = _portfolio().to_dict()
        document["axes"][0]["bogus"] = 1
        with pytest.raises(PortfolioError, match="unknown portfolio axis"):
            Portfolio.from_dict(document)

    def test_missing_schema_version_rejected(self):
        document = _portfolio().to_dict()
        del document["schema_version"]
        with pytest.raises(PortfolioError, match="schema_version"):
            Portfolio.from_dict(document)

    def test_wrong_schema_version_rejected(self):
        document = _portfolio().to_dict()
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(PortfolioError, match="not supported"):
            Portfolio.from_dict(document)

    def test_invalid_base_is_a_portfolio_error(self):
        # A bad base section must surface as PortfolioError (what the CLI
        # and the HTTP 400 handler catch), not a bare ScenarioError.
        document = _portfolio().to_dict()
        document["base"] = {"schema_version": SCHEMA_VERSION,
                            "workload": {"modle": "typo"}}
        with pytest.raises(PortfolioError, match="invalid portfolio base"):
            Portfolio.from_dict(document)
        document["base"] = "not an object"
        with pytest.raises(PortfolioError, match="invalid portfolio base"):
            Portfolio.from_dict(document)

    def test_non_string_axis_path_is_a_portfolio_error(self):
        with pytest.raises(PortfolioError, match="path must be a string"):
            PortfolioAxis(name="bad", values=(1,), path=123)
        document = _portfolio().to_dict()
        document["axes"][0]["path"] = 123
        with pytest.raises(PortfolioError, match="path must be a string"):
            Portfolio.from_dict(document)

    def test_non_object_document_rejected(self):
        with pytest.raises(PortfolioError, match="JSON object"):
            Portfolio.from_dict([1, 2])
        with pytest.raises(PortfolioError, match="invalid portfolio JSON"):
            Portfolio.from_json("{broken")

    def test_base_scenario_round_trips(self):
        portfolio = _portfolio(
            base=Scenario(workload=WorkloadSpec(model="llama2-7b",
                                                batch_size=16)))
        parsed = Portfolio.from_dict(portfolio.to_dict())
        assert parsed.base.workload.batch_size == 16


class TestScenarioListPortfolio:
    def test_points_mirror_the_scenario_list(self):
        scenarios = [
            Scenario(workload=WorkloadSpec(model="gpt3-6.7b")),
            Scenario(workload=WorkloadSpec(model="llama3-70b")),
        ]
        portfolio = portfolio_from_scenarios("adhoc", scenarios)
        points = portfolio.expand()
        assert [point.scenario for point in points] == scenarios
        assert [point.params for point in points] == [
            {"scenario": 0}, {"scenario": 1}]

    def test_empty_list_rejected(self):
        with pytest.raises(PortfolioError, match="no scenarios"):
            portfolio_from_scenarios("empty", [])


class TestRegistry:
    def test_figure_portfolios_are_registered(self):
        for figure in ("fig13", "fig17", "fig19"):
            assert figure in SWEEPABLE
            portfolio = get_experiment(figure).portfolio(True)
            assert portfolio.name == figure
            assert portfolio.expansion == "zip"

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="fig13"):
            get_experiment("not-a-portfolio")

    def test_computed_figure_is_not_sweepable(self):
        with pytest.raises(ValueError, match="not sweepable"):
            get_experiment("fig18").portfolio(True)

    def test_registered_portfolio_documents_round_trip(self):
        for figure in SWEEPABLE:
            portfolio = get_experiment(figure).portfolio(True)
            assert Portfolio.from_json(portfolio.to_json()) == portfolio

    @pytest.mark.parametrize("reduced", [True, False])
    @pytest.mark.parametrize("figure", SWEEPABLE)
    def test_points_evaluate_the_cells_scenarios_in_cell_order(
            self, figure, reduced):
        experiment = get_experiment(figure)
        cells = experiment.cells(reduced)
        points = experiment.portfolio(reduced).expand()
        assert [point.params for point in points] == cells
        assert [point.cache_key() for point in points] == [
            experiment.scenario_for(**cell).cache_key() for cell in cells]
