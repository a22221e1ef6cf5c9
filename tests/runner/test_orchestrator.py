"""Orchestrator, manifest, docs, and CLI behaviour."""

import json
import os

import pytest

from repro.obs.tracing import configure_tracing, disable_tracing, read_trace
from repro.runner import docs as docs_module
from repro.runner.cli import main
from repro.runner.manifest import (
    finite,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.runner.orchestrator import run_all, run_experiment
from repro.runner.registry import get_experiment


class TestParallelSerialParity:
    def test_two_workers_bit_identical_to_serial(self, tmp_path):
        """Pins the shared-PlanCache contract: sweeping a Scenario figure
        over two scheduler lanes (each worker with a private cache) must
        not change any row.
        """
        serial = run_experiment("fig20", reduced=True, jobs=1,
                                output_dir=str(tmp_path / "serial"))
        parallel = run_experiment("fig20", reduced=True, jobs=2,
                                  output_dir=str(tmp_path / "parallel"))
        assert serial["rows"] == parallel["rows"]
        # Bit-identical through JSON serialisation as well.
        on_disk_serial = read_manifest(str(tmp_path / "serial" / "fig20.json"))
        on_disk_parallel = read_manifest(
            str(tmp_path / "parallel" / "fig20.json"))
        assert (json.dumps(on_disk_serial["rows"], sort_keys=True)
                == json.dumps(on_disk_parallel["rows"], sort_keys=True))

    def test_jobs_recorded_in_manifest(self):
        manifest = run_experiment("fig09", reduced=True, jobs=2)
        assert manifest["jobs"] == 2
        assert manifest["reduced"] is True

    def test_run_all_shared_pool_matches_independent_runs(self):
        """One pool serves several figures; rows still match solo runs."""
        manifests = run_all(["fig09", "fig20"], reduced=True, jobs=2)
        assert list(manifests) == ["fig09", "fig20"]
        for figure in ("fig09", "fig20"):
            solo = run_experiment(figure, reduced=True, jobs=1)
            assert manifests[figure]["rows"] == solo["rows"]

    def test_run_all_rejects_jobs_below_one(self):
        # The CLI refuses --jobs 0 in its parser; a programmatic caller
        # gets the ValueError before anything runs.
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            run_all(["fig09"], reduced=True, jobs=0)

    def test_manifest_grid_does_not_alias_registry(self):
        manifest = run_experiment("fig09", reduced=True, jobs=1)
        manifest["grid"]["degree"].append(999)
        assert 999 not in get_experiment("fig09").reduced_grid["degree"]

    def test_later_figures_are_served_from_the_run_store(self):
        """Fig. 14 evaluates Fig. 13's scenarios, so within one run every
        fig14 point is a store hit, with the rows of a solo run."""
        manifests = run_all(["fig13", "fig14"], reduced=True)
        assert manifests["fig14"]["sweep"]["sources"] == {"store": 14}
        solo = run_experiment("fig14", reduced=True)
        assert solo["sweep"]["sources"] == {"evaluated": 14}
        assert manifests["fig14"]["rows"] == solo["rows"]

    @pytest.mark.slow  # spawns scheduler lane processes
    def test_trace_relays_lane_worker_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(path=str(path))
        try:
            run_all(["fig09", "fig20"], reduced=True, jobs=2)
        finally:
            disable_tracing()
        records = read_trace(str(path))
        by_id = {record["span_id"]: record for record in records}
        evaluates = [record for record in records
                     if record["name"] == "service.evaluate"]
        assert len(evaluates) == len(get_experiment("fig20").cells(True))
        for record in evaluates:
            assert record["pid"] != os.getpid()
            worker = by_id[record["parent_id"]]
            assert worker["name"] == "scheduler.evaluate"
            assert by_id[worker["parent_id"]]["name"] == "scheduler.dispatch"
        cells = [record for record in records
                 if record["name"] == "runner.cell"]
        assert [record["attrs"]["params"] for record in cells] == \
            get_experiment("fig09").cells(True)
        assert all(record["pid"] == os.getpid() for record in cells)


class TestManifest:
    def test_finite_sanitises_nonfinite_floats(self):
        assert finite(float("inf")) is None
        assert finite(float("nan")) is None
        assert finite({"a": [1.0, float("-inf")]}) == {"a": [1.0, None]}
        assert finite("inf") == "inf"

    def test_manifest_shape_and_accounting(self, tmp_path):
        manifest = run_experiment("fig20", reduced=True, jobs=1,
                                  output_dir=str(tmp_path))
        assert manifest["figure"] == "fig20"
        assert manifest["version"] == 1
        assert len(manifest["cells"]) == 5
        for cell in manifest["cells"]:
            assert cell["wall_seconds"] >= 0
            assert cell["error"] is None
            assert cell["num_rows"] == 1
        assert manifest["timings"]["total_seconds"] > 0
        assert manifest["timings"]["max_cell_seconds"] >= \
            manifest["timings"]["mean_cell_seconds"]

    def test_validator_catches_schema_and_cell_errors(self, tmp_path):
        manifest = run_experiment("fig09", reduced=True, jobs=1)
        experiment = get_experiment("fig09")
        assert validate_manifest(manifest, experiment) == []

        broken = json.loads(json.dumps(manifest))
        broken["rows"][0].pop("throughput")
        assert any("mismatch schema" in problem
                   for problem in validate_manifest(broken, experiment))

        broken = json.loads(json.dumps(manifest))
        broken["cells"][0]["error"] = "boom"
        assert any("failed" in problem
                   for problem in validate_manifest(broken, experiment))

        broken = json.loads(json.dumps(manifest))
        del broken["rows"]
        assert any("missing top-level key" in problem
                   for problem in validate_manifest(broken, experiment))

    def test_validator_checks_the_registered_grid(self):
        manifest = run_experiment("fig20", reduced=True, jobs=1)
        experiment = get_experiment("fig20")
        assert validate_manifest(manifest, experiment) == []

        # Dropping the last grid point together with its cell and row
        # keeps the manifest self-consistent, but not with the registry.
        truncated = json.loads(json.dumps(manifest))
        truncated["grid"].pop()
        truncated["cells"].pop()
        truncated["rows"].pop()
        assert any("registered reduced grid" in problem
                   for problem in validate_manifest(truncated, experiment))

        # A reduced run does not pass for the default grid.
        relabelled = json.loads(json.dumps(manifest))
        relabelled["reduced"] = False
        assert any("registered default grid" in problem
                   for problem in validate_manifest(relabelled, experiment))

    def test_default_grid_validates_after_a_disk_round_trip(self, tmp_path):
        # The written grid has its axes in sorted key order (fabric before
        # model); the registered grid is model-major.
        manifest = run_experiment("fabric_zoo")
        path = write_manifest(manifest, str(tmp_path))
        assert validate_manifest(read_manifest(path),
                                 get_experiment("fabric_zoo")) == []

    def test_failing_cell_is_recorded_not_raised(self):
        from repro.api.service import PlanService
        from repro.runner.orchestrator import execute_cell
        experiment = get_experiment("fig07")
        outcome = execute_cell(experiment, {"model": "no-such-model",
                                            "wafer": "4x8"},
                               PlanService())
        assert outcome.error is not None
        assert outcome.rows == []

    def test_write_is_strict_json(self, tmp_path):
        manifest = run_experiment("fig09", reduced=True, jobs=1)
        path = write_manifest(manifest, str(tmp_path))
        text = open(path).read()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text)


class TestDocs:
    def test_rendered_docs_cover_all_figures(self):
        content = docs_module.render_experiments_md()
        from repro.runner.registry import figure_ids
        for figure in figure_ids():
            assert f"`{figure}`" in content

    def test_checked_in_experiments_md_is_fresh(self):
        """The repo's EXPERIMENTS.md must match the registry (CI parity)."""
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        assert docs_module.check_experiments_md(
            str(repo_root / "EXPERIMENTS.md")), (
            "EXPERIMENTS.md is stale; regenerate with "
            "`PYTHONPATH=src python -m repro docs`")

    def test_check_reports_stale_file(self, tmp_path):
        stale = tmp_path / "EXPERIMENTS.md"
        stale.write_text("# stale\n")
        assert not docs_module.check_experiments_md(str(stale))
        assert not docs_module.check_experiments_md(
            str(tmp_path / "missing.md"))
        written = docs_module.write_experiments_md(
            str(tmp_path / "fresh.md"))
        assert docs_module.check_experiments_md(written)


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "search_time" in out

    def test_run_writes_manifest_and_check_passes_per_figure(self, tmp_path,
                                                            capsys):
        assert main(["run", "fig09", "--reduced",
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig09.json").exists()
        # check fails while the other figures are missing.
        assert main(["check", "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "MISSING" in err

    @pytest.mark.parametrize("argv", [
        ["run", "fig14", "--reduced", "--no-write"],
        ["sweep", "fig14", "--reduced", "--no-write"],
        ["serve", "--port", "0"],
    ], ids=["run", "sweep", "serve"])
    def test_jobs_below_one_is_a_usage_error(self, argv, capsys):
        for jobs in ("0", "-1"):
            with pytest.raises(SystemExit) as caught:
                main(argv + ["--jobs", jobs])
            assert caught.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --jobs: must be >= 1, got {jobs}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--log-level", "info"],
                                      ["--log-json"]],
                             ids=["log-level", "log-json"])
    def test_logging_flags_are_unrecognized(self, flag, capsys):
        # No module writes a log record, so no verb takes a logging flag;
        # a script passing one gets argparse's usage error.
        with pytest.raises(SystemExit) as caught:
            main(["run", "fig14", "--reduced", "--no-write"] + flag)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_unknown_figure_exits_nonzero(self, capsys):
        assert main(["run", "fig99", "--reduced", "--no-write"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "registered" in err

    def test_docs_check_against_repo_copy(self, tmp_path):
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        assert main(["docs", "--check",
                     "--output", str(repo_root / "EXPERIMENTS.md")]) == 0
        stale = tmp_path / "EXPERIMENTS.md"
        stale.write_text("# stale\n")
        assert main(["docs", "--check", "--output", str(stale)]) == 1


class TestCacheStatsAggregation:
    def test_manifest_carries_fleet_wide_counters(self):
        # fig13 derives execution plans, so its points actually touch the
        # plan cache (fig09 is a pure search-time figure and would not).
        serial = run_experiment("fig13", reduced=True, jobs=1)
        pooled = run_experiment("fig13", reduced=True, jobs=2)
        for manifest in (serial, pooled):
            cache = manifest["plan_cache"]
            assert set(cache) == {"hits", "misses", "entries", "max_entries"}
            assert cache["hits"] + cache["misses"] > 0
        # The pooled run aggregates every lane worker, not just the parent
        # (which evaluates nothing and would report zeros).
        assert pooled["plan_cache"]["misses"] > 0
