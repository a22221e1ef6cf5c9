"""The BENCH report format: harness entries, schema checks, compare gate."""

import json

import pytest

from repro.bench.registry import (
    Benchmark,
    benchmark_names,
    get_benchmark,
    register_benchmark,
)
from repro.bench.report import (
    BENCH_VERSION,
    compare_reports,
    load_report,
    run_benchmark,
    validate_bench_report,
    write_report,
)
from repro.runner.cli import main


def _benchmark(fn, repeat=3, warmup=1, name="unit"):
    return Benchmark(name=name, title="unit benchmark",
                     description="test-only", fn=fn, repeat=repeat,
                     warmup=warmup)


def _report(entries, suite="unit"):
    return {
        "bench_version": BENCH_VERSION,
        "repro_version": "0.0.0-test",
        "suite": suite,
        "generated_unix": 1765432100.0,
        "benchmarks": entries,
    }


def _entry(name, median, repeat=3):
    return {
        "name": name,
        "repeat": repeat,
        "warmup": 1,
        "seconds": [median] * repeat,
        "median_seconds": median,
        "p10_seconds": median,
        "p90_seconds": median,
        "extras": {},
    }


class TestHarness:
    def test_entry_shape_and_extras(self):
        calls = []

        def fn():
            calls.append(1)
            return {"widgets": 7}

        entry = run_benchmark(_benchmark(fn, repeat=4, warmup=2))
        # 2 warmups + 4 timed runs, every timed run recorded.
        assert len(calls) == 6
        assert entry["repeat"] == 4 and entry["warmup"] == 2
        assert len(entry["seconds"]) == 4
        assert entry["extras"] == {"widgets": 7}
        assert entry["p10_seconds"] <= entry["median_seconds"]
        assert entry["median_seconds"] <= entry["p90_seconds"]
        assert validate_bench_report(_report([entry])) == []

    def test_overrides_beat_benchmark_defaults(self):
        entry = run_benchmark(_benchmark(lambda: None), repeat=1, warmup=0)
        assert entry["repeat"] == 1 and entry["warmup"] == 0
        assert len(entry["seconds"]) == 1

    def test_zero_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_benchmark(_benchmark(lambda: None), repeat=0)


class TestSchema:
    def test_write_load_round_trip(self, tmp_path):
        document = _report([_entry("a", 0.5), _entry("b", 0.25)])
        path = str(tmp_path / "BENCH_unit.json")
        write_report(document, path)
        assert load_report(path) == document
        # The on-disk form is canonical JSON (sorted keys).
        on_disk = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert on_disk == document

    def test_write_refuses_invalid(self, tmp_path):
        document = _report([_entry("a", 0.5)])
        del document["suite"]
        with pytest.raises(ValueError, match="suite"):
            write_report(document, str(tmp_path / "bad.json"))

    def test_load_refuses_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bench_version": BENCH_VERSION}))
        with pytest.raises(ValueError, match="missing report key"):
            load_report(str(path))

    def test_rejects_wrong_version(self):
        document = _report([])
        document["bench_version"] = BENCH_VERSION + 1
        assert any("bench_version" in problem
                   for problem in validate_bench_report(document))

    def test_rejects_duplicate_names(self):
        problems = validate_bench_report(
            _report([_entry("a", 0.5), _entry("a", 0.6)]))
        assert any("duplicates" in problem for problem in problems)

    def test_rejects_seconds_repeat_mismatch(self):
        entry = _entry("a", 0.5)
        entry["seconds"] = [0.5, 0.5]
        problems = validate_bench_report(_report([entry]))
        assert any("repeat" in problem for problem in problems)

    def test_rejects_negative_timing(self):
        entry = _entry("a", 0.5)
        entry["seconds"] = [0.5, -0.1, 0.5]
        problems = validate_bench_report(_report([entry]))
        assert any("negative" in problem for problem in problems)

    def test_rejects_non_dict_extras(self):
        entry = _entry("a", 0.5)
        entry["extras"] = ["not", "a", "dict"]
        problems = validate_bench_report(_report([entry]))
        assert any("extras" in problem for problem in problems)

    def test_rejects_non_object_document(self):
        assert validate_bench_report([1, 2, 3])


class TestCompare:
    def test_within_threshold_passes(self):
        old = _report([_entry("a", 1.0)])
        new = _report([_entry("a", 1.1)])
        regressions, notes = compare_reports(old, new, 20.0)
        assert regressions == []
        assert any("a:" in note for note in notes)

    def test_exactly_at_threshold_passes(self):
        # Strictly-greater semantics: +20.0% at threshold 20 is not a
        # regression.
        old = _report([_entry("a", 1.0)])
        new = _report([_entry("a", 1.2)])
        regressions, _ = compare_reports(old, new, 20.0)
        assert regressions == []

    def test_beyond_threshold_regresses(self):
        old = _report([_entry("a", 1.0)])
        new = _report([_entry("a", 1.3)])
        regressions, _ = compare_reports(old, new, 20.0)
        assert len(regressions) == 1
        assert "a:" in regressions[0] and "+30.0%" in regressions[0]

    def test_missing_in_old_is_a_note(self):
        old = _report([_entry("a", 1.0)])
        new = _report([_entry("a", 1.0), _entry("b", 5.0)])
        regressions, notes = compare_reports(old, new, 20.0)
        assert regressions == []
        assert any("no baseline" in note for note in notes)

    def test_zero_baseline_is_a_note(self):
        old = _report([_entry("a", 0.0)])
        new = _report([_entry("a", 100.0)])
        regressions, notes = compare_reports(old, new, 20.0)
        assert regressions == []
        assert any("not comparable" in note for note in notes)

    def test_dropped_benchmark_is_a_note(self):
        old = _report([_entry("a", 1.0), _entry("b", 1.0)])
        new = _report([_entry("a", 1.0)])
        regressions, notes = compare_reports(old, new, 20.0)
        assert regressions == []
        assert any("not in the new report" in note for note in notes)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(_report([]), _report([]), -1.0)


class TestRegistry:
    def test_seed_suite_registered(self):
        names = benchmark_names()
        for expected in ("dls_search", "fig13_sweep_local", "cache_key",
                         "scenario_serde", "server_roundtrip"):
            assert expected in names

    def test_double_registration_rejected(self):
        register_benchmark(name="__unit_dup", title="t", description="d")(
            lambda: None)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_benchmark(name="__unit_dup", title="t",
                                   description="d")(lambda: None)
        finally:
            from repro.bench import registry
            registry._REGISTRY.pop("__unit_dup", None)

    def test_bad_repeat_and_warmup_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            register_benchmark(name="__unit_bad", title="t", description="d",
                               repeat=0)
        with pytest.raises(ValueError, match="warmup"):
            register_benchmark(name="__unit_bad", title="t", description="d",
                               warmup=-1)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="dls_search"):
            get_benchmark("no_such_benchmark")


class TestCLI:
    def test_list_names_every_benchmark(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in benchmark_names():
            assert name in out

    def test_compare_gate_exit_codes(self, tmp_path, capsys):
        old_path = str(tmp_path / "old.json")
        good_path = str(tmp_path / "good.json")
        bad_path = str(tmp_path / "bad.json")
        write_report(_report([_entry("a", 1.0)]), old_path)
        write_report(_report([_entry("a", 1.05)]), good_path)
        write_report(_report([_entry("a", 2.0)]), bad_path)
        assert main(["bench", "--compare", old_path, good_path,
                     "--threshold", "20"]) == 0
        assert main(["bench", "--compare", old_path, bad_path,
                     "--threshold", "20"]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err

    def test_compare_unreadable_report_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{}")
        ok = tmp_path / "ok.json"
        write_report(_report([]), str(ok))
        assert main(["bench", "--compare", str(bad), str(ok)]) == 2

    def test_benchmarks_md_check_against_repo_copy(self, tmp_path):
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        assert main(["docs", "--check",
                     "--output", str(repo_root / "EXPERIMENTS.md"),
                     "--benchmarks-output",
                     str(repo_root / "BENCHMARKS.md")]) == 0
        stale = tmp_path / "BENCHMARKS.md"
        stale.write_text("# stale\n")
        assert main(["docs", "--check",
                     "--output", str(repo_root / "EXPERIMENTS.md"),
                     "--benchmarks-output", str(stale)]) == 1
