"""Tests of the portfolio sweep engine, its remote twin, and ``repro sweep``.

The acceptance contract of the sweep backbone lives here: a figure's
portfolio swept through the scheduler (locally or via a live server) emits
a manifest whose rows are bit-identical to the orchestrator path
(``repro run <figure> --reduced``), duplicates are evaluated once, bad
points become failed cells instead of failed sweeps, and a remote sweep
paces itself below the server's admission bound.
"""

import asyncio
import json

import pytest

from repro.api.portfolio import (
    Portfolio,
    PortfolioAxis,
    portfolio_from_scenarios,
)
from repro.api.scenario import Scenario
from repro.runner import orchestrator
from repro.runner.cli import main
from repro.runner.manifest import validate_manifest
from repro.runner.registry import all_experiments, get_experiment
from repro.server.faults import FaultInjector
from repro.server.portfolio import (
    build_sweep_manifest,
    run_portfolio_local,
    run_portfolio_remote,
    sweep_portfolio,
)
from repro.server.scheduler import PlanScheduler

pytestmark = pytest.mark.slow  # sweeps evaluate real (reduced) grids


def _fast_scenario(max_candidates=4, **workload_overrides):
    workload = {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                "seq_length": 512}
    workload.update(workload_overrides)
    return Scenario.from_dict({
        "schema_version": 1,
        "workload": workload,
        "solver": {"scheme": "temp", "engine": "tcme",
                   "max_candidates": max_candidates},
    })


def _fast_portfolio(name="fast", candidates=(2, 3)):
    """A tiny portfolio over the solver candidate cap (fast to evaluate)."""
    return Portfolio(
        name=name,
        base=_fast_scenario(),
        axes=(
            PortfolioAxis(name="max_candidates",
                          path="solver.max_candidates",
                          values=tuple(candidates)),
        ),
    )


class TestEngine:
    def test_outcomes_in_point_order_with_dedup(self):
        # Two distinct points plus one duplicate of the first.
        portfolio = Portfolio(
            name="dedup",
            base=_fast_scenario(),
            expansion="zip",
            axes=(
                PortfolioAxis(name="max_candidates",
                              path="solver.max_candidates",
                              values=(2, 3, 2)),
                PortfolioAxis(name="step", values=(0, 1, 2)),
            ),
        )

        async def scenario():
            async with PlanScheduler() as scheduler:
                outcomes = await sweep_portfolio(scheduler, portfolio)
                return outcomes, dict(scheduler.counters)

        outcomes, counters = asyncio.run(scenario())
        assert [outcome.index for outcome in outcomes] == [0, 1, 2]
        assert counters["evaluations"] == 2  # the duplicate never ran
        assert outcomes[0].payload == outcomes[2].payload
        assert outcomes[2].source == "duplicate"
        assert outcomes[0].source == "evaluated"
        # The shared evaluation's wall time is accounted to the first
        # point only; a duplicate cell costs nothing.
        assert outcomes[2].wall_seconds == 0.0
        assert outcomes[0].wall_seconds > 0.0

    def test_bad_point_is_an_error_payload_not_a_failed_sweep(self):
        # A fault study without a fixed_spec passes document validation but
        # fails in the evaluation path.
        bad = Scenario.from_dict({
            "schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {"link_fault_rate": 0.1},
        })
        portfolio = portfolio_from_scenarios(
            "mixed", [_fast_scenario(), bad])
        outcomes = run_portfolio_local(portfolio)
        assert "error" not in outcomes[0].payload
        assert outcomes[1].payload["error"]["status"] == 422

    def test_on_unique_reports_incremental_progress(self):
        seen = []
        run_portfolio_local(
            _fast_portfolio(),
            on_unique=lambda done, total, outcome: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestManifest:
    def test_adhoc_manifest_is_valid_and_rows_carry_payloads(self):
        portfolio = _fast_portfolio()
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(portfolio, outcomes,
                                        total_seconds=1.0)
        assert validate_manifest(manifest) == []
        assert len(manifest["rows"]) == 2
        assert manifest["rows"][0]["max_candidates"] == 2
        assert manifest["rows"][0]["model"] == "gpt3-6.7b"
        assert manifest["sweep"]["unique"] == 2
        # Strict JSON end to end.
        json.dumps(manifest, allow_nan=False)

    def test_failed_point_becomes_a_failed_cell(self):
        bad = Scenario.from_dict({
            "schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {"link_fault_rate": 0.1},
        })
        portfolio = portfolio_from_scenarios("failing", [bad])
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(portfolio, outcomes)
        assert manifest["cells"][0]["error"]
        assert manifest["cells"][0]["num_rows"] == 0
        assert manifest["rows"] == []
        problems = validate_manifest(manifest)
        assert any("failed" in problem for problem in problems)


@pytest.mark.parametrize("figure", [
    experiment.figure for experiment in all_experiments()
    if experiment.row is not None])
class TestOrchestratorParity:
    def test_local_sweep_rows_identical_to_orchestrator(self, figure):
        experiment = get_experiment(figure)
        portfolio = experiment.portfolio(True)
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(
            portfolio, outcomes, reduced=True, experiment=experiment)
        assert validate_manifest(manifest, experiment) == []
        reference = orchestrator.run_experiment(figure, reduced=True)
        assert manifest["rows"] == reference["rows"]
        assert manifest["schema"] == reference["schema"]
        assert [cell["params"] for cell in manifest["cells"]] == \
            [cell["params"] for cell in reference["cells"]]


class TestRemoteSweep:
    def test_outcomes_come_back_in_point_order(self, server):
        portfolio = _fast_portfolio(name="http", candidates=(4, 5, 4))
        outcomes = run_portfolio_remote(portfolio, "127.0.0.1", server.port)
        assert [outcome.index for outcome in outcomes] == [0, 1, 2]
        assert [outcome.params["max_candidates"]
                for outcome in outcomes] == [4, 5, 4]
        assert all("error" not in outcome.payload for outcome in outcomes)
        assert outcomes[2].source == "duplicate"
        assert outcomes[2].payload == outcomes[0].payload

    def test_sweep_paces_itself_below_max_queue(self, make_server):
        harness = make_server(max_queue=1)
        portfolio = _fast_portfolio(name="paced", candidates=(2, 3, 4))
        outcomes = run_portfolio_remote(portfolio, "127.0.0.1",
                                        harness.port)
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated"] * 3
        assert harness.scheduler.counters["shed"] == 0

    def test_dropped_connection_is_retried(self, tmp_path, make_server):
        harness = make_server(max_queue=1)
        portfolio = _fast_portfolio(name="dropped", candidates=(2, 3, 4))

        def drop_next_connection(completed, total, outcome):
            # At max_queue=1 points go one at a time, so arming the fault
            # after the first answer drops exactly the second request.
            if completed == 1:
                harness.scheduler.chaos = FaultInjector(
                    "flaky-http:1", state_dir=str(tmp_path))

        outcomes = run_portfolio_remote(portfolio, "127.0.0.1", harness.port,
                                        on_unique=drop_next_connection)
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated"] * 3
        assert harness.scheduler.chaos.stats()["fired"] == {"flaky-http": 1}

    def test_portfolio_route_is_gone(self, client):
        status, _, payload = client._request(
            "POST", "/v1/portfolio", _fast_portfolio().to_dict())
        assert status == 404
        assert payload["error"]["type"] == "not_found"
        assert "portfolios" not in client.metrics()

    @pytest.mark.parametrize("path", ["/v1/portfolio", "/v1/portfolio/1"])
    def test_job_listing_and_status_routes_are_gone(self, client, path):
        status, _, payload = client._request("GET", path)
        assert status == 404
        assert payload["error"]["type"] == "not_found"

    def test_failed_evaluation_keeps_its_source(self, server):
        # A fault study without a fixed_spec passes document validation
        # but fails in the evaluation path: the server evaluated it.
        bad = Scenario.from_dict({
            "schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {"link_fault_rate": 0.3},
        })
        portfolio = portfolio_from_scenarios(
            "remote-mixed", [_fast_scenario(max_candidates=6), bad])
        outcomes = run_portfolio_remote(portfolio, "127.0.0.1", server.port)
        assert "error" not in outcomes[0].payload
        assert outcomes[1].source == "evaluated"
        assert outcomes[1].payload["error"]["status"] == 422


class TestSweepCli:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig13", "fig17", "fig19"):
            assert name in out

    def test_sweep_requires_exactly_one_source(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "fig13", "--file", "x.json"]) == 2

    def test_sweep_unknown_portfolio_exits_2(self, capsys):
        assert main(["sweep", "not-a-portfolio"]) == 2
        assert "unknown portfolio" in capsys.readouterr().err

    def test_sweep_computed_figure_exits_2_listing_sweepable_ones(
            self, capsys):
        # fig18 is registered but has a cell runner, not a row mapper.
        assert main(["sweep", "fig18", "--reduced", "--no-write"]) == 2
        err = capsys.readouterr().err
        assert "unknown portfolio 'fig18'" in err
        assert "fig13" in err

    def test_sweep_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "portfolio.json"
        path.write_text('{"schema_version": 1, "bogus": true}')
        assert main(["sweep", "--file", str(path)]) == 2
        assert "unknown portfolio keys" in capsys.readouterr().err

    def test_sweep_file_with_bad_base_exits_2_without_traceback(
            self, tmp_path, capsys):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "bad",
            "base": {"schema_version": 1, "workload": {"modle": "typo"}},
            "axes": [{"name": "rows", "path": "hardware.rows",
                      "values": [2, 4]}],
        }))
        assert main(["sweep", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid portfolio base" in err
        assert "Traceback" not in err

    def test_sweep_malformed_server_url_exits_2(self, capsys):
        assert main(["sweep", "fig13", "--reduced", "--server", "://",
                     "--no-write"]) == 2
        assert "malformed --server" in capsys.readouterr().err

    def test_sweep_unreachable_server_exits_2(self, capsys):
        assert main(["sweep", "fig13", "--reduced", "--server",
                     "127.0.0.1:1", "--no-write"]) == 2
        assert "cannot sweep via plan server" in capsys.readouterr().err

    def test_adhoc_file_sweep_writes_a_valid_manifest(self, tmp_path,
                                                      capsys):
        path = tmp_path / "portfolio.json"
        path.write_text(_fast_portfolio(name="cli-adhoc").to_json())
        assert main(["sweep", "--file", str(path),
                     "--output-dir", str(tmp_path / "results")]) == 0
        manifest = json.loads(
            (tmp_path / "results" / "cli-adhoc.json").read_text())
        assert validate_manifest(manifest) == []
        assert len(manifest["rows"]) == 2

    # Acceptance criterion: `repro sweep` over the registered fig13 reduced
    # portfolio emits a manifest row-identical to `repro run fig13
    # --reduced`, via both local and --server modes.
    def test_fig13_sweep_local_mode_row_identical_to_repro_run(
            self, tmp_path, capsys):
        reference = orchestrator.run_experiment("fig13", reduced=True)
        assert main(["sweep", "fig13", "--reduced",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig13.json").read_text())
        assert manifest["rows"] == json.loads(
            json.dumps(reference["rows"], allow_nan=False))
        assert manifest["schema"] == list(reference["schema"])
        assert validate_manifest(manifest,
                                 get_experiment("fig13")) == []

    def test_fig13_sweep_server_mode_row_identical_to_repro_run(
            self, server, tmp_path, capsys):
        reference = orchestrator.run_experiment("fig13", reduced=True)
        assert main(["sweep", "fig13", "--reduced",
                     "--server", f"127.0.0.1:{server.port}",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig13.json").read_text())
        assert manifest["rows"] == json.loads(
            json.dumps(reference["rows"], allow_nan=False))
        assert manifest["sweep"]["mode"] == "server"
        assert validate_manifest(manifest,
                                 get_experiment("fig13")) == []

    def test_server_sweep_manifest_counts_sources(self, make_server,
                                                  tmp_path, capsys):
        # A fresh server evaluates every unique point; the same sweep
        # again is served from its store.
        harness = make_server(store_path=tmp_path / "plans.sqlite")
        path = tmp_path / "portfolio.json"
        path.write_text(_fast_portfolio(name="cli-sources").to_json())
        sources = []
        for attempt in ("first", "second"):
            out = tmp_path / attempt
            assert main(["sweep", "--file", str(path), "--server",
                         f"127.0.0.1:{harness.port}",
                         "--output-dir", str(out)]) == 0
            manifest = json.loads((out / "cli-sources.json").read_text())
            sources.append(manifest["sweep"]["sources"])
        assert sources == [{"evaluated": 2}, {"store": 2}]

    def test_repeated_server_sweep_is_served_from_the_store(self, server):
        portfolio = _fast_portfolio(name="stored", candidates=(7, 8))
        first = run_portfolio_remote(portfolio, "127.0.0.1", server.port)
        second = run_portfolio_remote(portfolio, "127.0.0.1", server.port)
        assert [outcome.payload for outcome in first] == \
            [outcome.payload for outcome in second]
        assert [outcome.source for outcome in second] == ["store", "store"]


class TestFabricZooSweep:
    """Acceptance: the topology zoo swept as a portfolio axis, with a
    validated manifest, in local (batched and per-point) and server modes."""

    def _reference_rows(self):
        reference = orchestrator.run_experiment("fabric_zoo", reduced=True)
        return json.loads(json.dumps(reference["rows"], allow_nan=False))

    def test_reduced_grid_covers_every_registered_fabric(self):
        from repro.experiments.fabric_zoo import FABRICS
        from repro.hardware.topologies import topology_names

        portfolio = get_experiment("fabric_zoo").portfolio(True)
        labels = [point.params["fabric"] for point in portfolio.expand()]
        assert labels == list(FABRICS)
        assert set(labels) == set(topology_names())

    def test_fabrics_produce_distinct_costs(self):
        manifest = orchestrator.run_experiment("fabric_zoo", reduced=True)
        by_fabric = {row["fabric"]: row for row in manifest["rows"]}
        mesh = by_fabric["mesh"]
        distinct = [fabric for fabric, row in by_fabric.items()
                    if fabric != "mesh"
                    and row["throughput"] != mesh["throughput"]]
        assert len(distinct) >= 3, by_fabric

    def test_local_in_process_and_pool_sweeps_match_repro_run(
            self, tmp_path):
        reference = self._reference_rows()
        for index, flags in enumerate(([], ["--jobs", "2"])):
            out = tmp_path / f"sweep-{index}"
            assert main(["sweep", "fabric_zoo", "--reduced", *flags,
                         "--output-dir", str(out)]) == 0
            manifest = json.loads((out / "fabric_zoo.json").read_text())
            assert manifest["rows"] == reference
            assert validate_manifest(
                manifest, get_experiment("fabric_zoo")) == []

    def test_server_sweep_matches_repro_run(self, server, tmp_path):
        assert main(["sweep", "fabric_zoo", "--reduced",
                     "--server", f"127.0.0.1:{server.port}",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fabric_zoo.json").read_text())
        assert manifest["rows"] == self._reference_rows()
        assert manifest["sweep"]["mode"] == "server"
        assert validate_manifest(
            manifest, get_experiment("fabric_zoo")) == []
