"""Registry contract: all figures registered, grids sane, cells executable."""

from pathlib import Path

import pytest

from repro.api.service import PlanService
from repro.runner.manifest import validate_manifest
from repro.runner.orchestrator import execute_cell, run_experiment
from repro.runner.registry import (
    all_experiments,
    expand_grid,
    figure_ids,
    get_experiment,
    register,
)

#: Every figure/table of the paper's evaluation plus the topology-zoo
#: study, in registry (sorted) order.
EXPECTED_FIGURES = [
    "fabric_zoo", "fig04", "fig07", "fig09", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "search_time",
]

#: The paper-shape checks, one ``test_<figure>*.py`` per registered figure.
BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


class TestRegistry:
    def test_all_fourteen_figures_registered(self):
        assert figure_ids() == EXPECTED_FIGURES

    def test_lookup_unknown_figure_lists_known_ids(self):
        with pytest.raises(KeyError, match="fig13"):
            get_experiment("fig99")

    def test_metadata_is_complete(self):
        for experiment in all_experiments():
            assert experiment.paper
            assert experiment.title
            assert experiment.module.startswith("repro.experiments.")
            assert experiment.schema, experiment.figure
            assert callable(experiment.cell)

    def test_grids_expand_and_reduced_is_not_larger(self):
        for experiment in all_experiments():
            default_cells = experiment.cells(False)
            reduced_cells = experiment.cells(True)
            assert len(default_cells) >= 1
            assert len(reduced_cells) >= 1
            assert len(reduced_cells) <= len(default_cells)
            # Every cell's params must be a subset of the schema columns, so
            # merged rows can match the schema exactly.
            for cell in default_cells + reduced_cells:
                assert set(cell) <= set(experiment.schema), experiment.figure

    def test_expand_grid_product_and_explicit(self):
        assert expand_grid({"a": [1, 2], "b": ["x"]}) == [
            {"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert expand_grid([{"a": 1}, {"a": 2, "b": 3}]) == [
            {"a": 1}, {"a": 2, "b": 3}]

    def test_every_figure_has_a_paper_shape_check(self):
        # A figure's paper-shape check asserts on its registered rows; a
        # newly registered figure must add one.
        missing = [figure for figure in figure_ids()
                   if not list(BENCHMARKS_DIR.glob(f"test_{figure}*.py"))]
        assert missing == []


def _registration(**overrides):
    """Keyword arguments of a throwaway figure registration."""
    kwargs = dict(figure="fig_registration_test", paper="-", title="-",
                  default_grid={"model": ["gpt3-6.7b"]},
                  reduced_grid={"model": ["gpt3-6.7b"]},
                  schema=("model", "oom"))
    kwargs.update(overrides)
    return kwargs


class TestRegistration:
    def test_row_mapper_and_cell_runner_together_are_rejected(self):
        decorator = register(**_registration(
            scenario=lambda model: None,
            row=lambda params, payload: {"oom": payload["oom"]}))
        with pytest.raises(ValueError, match="no cell runner"):
            decorator(lambda service, model: [{"oom": False}])
        assert "fig_registration_test" not in figure_ids()

    def test_row_mapper_without_scenario_builder_is_rejected(self):
        with pytest.raises(ValueError, match="scenario builder"):
            register(**_registration(
                row=lambda params, payload: {"oom": payload["oom"]}))
        assert "fig_registration_test" not in figure_ids()


class TestReducedGridsExecute:
    """Every figure's reduced grid runs and its manifest validates.

    One cell per figure is executed directly (cheap); the full reduced grids
    are exercised end-to-end for the two cheapest figures and, in CI, by the
    ``figures`` job for all of them.
    """

    @pytest.mark.parametrize("figure", EXPECTED_FIGURES)
    def test_first_reduced_cell_matches_schema(self, figure):
        experiment = get_experiment(figure)
        if experiment.row is None:
            params = experiment.cells(reduced=True)[0]
            outcome = execute_cell(experiment, params, PlanService())
            assert outcome.error is None, outcome.error
            rows = outcome.rows
        else:
            point = experiment.portfolio(True).expand()[0]
            payload = PlanService().evaluate(point.scenario).to_dict()
            rows = [{**point.params, **experiment.row(point.params, payload)}]
        assert rows, f"{figure} produced no rows"
        for row in rows:
            assert set(row) == set(experiment.schema)

    @pytest.mark.parametrize("figure", ["fig09", "fig20"])
    def test_reduced_manifest_validates(self, figure, tmp_path):
        manifest = run_experiment(figure, reduced=True, jobs=1,
                                  output_dir=str(tmp_path))
        experiment = get_experiment(figure)
        assert validate_manifest(manifest, experiment) == []
        assert (tmp_path / f"{figure}.json").exists()
        assert len(manifest["cells"]) == len(experiment.cells(True))
