"""Tests of the SQLite result store's files and processes, and of the
``repro store`` / ``repro loadtest`` verbs.

The contracts pinned here are operational: upserts keep the file bounded,
concurrent and crashing writers lose no committed record, a file that is
not a store is refused and left untouched, a store that cannot be opened
is a usage error of every command that takes one, and the loadtest
harness reports against a live server.
"""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.runner.cli import main as cli_main
from repro.server.store import ResultStore, StoreError

KEY = "a" * 64
OTHER_KEY = "b" * 64
PAYLOAD = {"kind": "single_wafer", "model": "gpt3-6.7b", "step_time": 0.5}


def _fill(store, count, prefix=0):
    for index in range(count):
        store.put(f"{prefix:032d}{index:032d}", {"step_time": index * 0.001})


def _foreign_database(path):
    """An SQLite database of someone else's: one table ``t``, in the
    default ``delete`` journal mode."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (x INTEGER)")
    conn.execute("INSERT INTO t VALUES (1)")
    conn.commit()
    assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "delete"
    conn.close()


class TestSqliteBackend:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        with ResultStore(path) as store:
            assert store.get(KEY) is None
            store.put(KEY, PAYLOAD)
            assert store.get(KEY) == PAYLOAD
            assert (store.hits, store.misses, store.writes) == (1, 1, 1)
            assert len(store) == 1 and KEY in store
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == PAYLOAD
            assert reopened.stats()["persistent"] is True

    def test_returned_payload_is_isolated(self, tmp_path):
        with ResultStore(tmp_path / "plans.sqlite") as store:
            store.put(KEY, PAYLOAD)
            store.get(KEY)["step_time"] = -1.0
            assert store.get(KEY)["step_time"] == PAYLOAD["step_time"]

    def test_reput_upserts_instead_of_growing(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        with ResultStore(path) as store:
            for round_number in range(50):
                store.put(KEY, {"step_time": float(round_number)})
            assert len(store) == 1
            assert store.get(KEY) == {"step_time": 49.0}

    def test_corrupt_database_raises_oserror(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        path.write_text("this is not a sqlite database, not even close\n")
        with pytest.raises(OSError):
            store = ResultStore(path)
            try:  # some sqlite builds defer the failure to first use
                store.put(KEY, PAYLOAD)
            finally:
                store.close()

    def test_write_failure_raises_store_error(self, tmp_path):
        # A failed write is a StoreError, an OSError, so the scheduler's
        # store_write_failures containment catches it; it counts no write
        # and costs no committed record.
        with ResultStore(tmp_path / "plans.sqlite") as store:
            store.put(KEY, PAYLOAD)
            store._conn.execute("PRAGMA query_only=ON")
            with pytest.raises(StoreError, match="write failed") as caught:
                store.put(OTHER_KEY, PAYLOAD)
            assert isinstance(caught.value, OSError)
            assert store.writes == 1
            assert len(store) == 1 and store.get(KEY) == PAYLOAD

    def test_directory_path_is_refused(self, tmp_path):
        with pytest.raises(StoreError,
                           match=f"cannot open result store {tmp_path}"):
            ResultStore(tmp_path)

    def test_uncreatable_parent_directory_is_refused(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        path = blocker / "plans.sqlite"
        with pytest.raises(StoreError,
                           match=f"cannot open result store {path}"):
            ResultStore(path)
        assert blocker.read_text() == "a file, not a directory\n"


class TestDurability:
    def test_concurrent_writers_all_records_survive(self, tmp_path):
        # Two real processes writing into one store: SQLite serialises
        # their commits, and every record of both survives.
        path = str(tmp_path / "plans.sqlite")
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_fill_worker,
                                   args=(path, prefix, 50))
                   for prefix in (1, 2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        with ResultStore(path) as store:
            assert len(store) == 100
            assert store.get(f"{1:032d}{7:032d}") == {"step_time": 0.007}
            assert store.get(f"{2:032d}{7:032d}") == {"step_time": 0.007}

    def test_kill_mid_write_leaves_store_loadable(self, tmp_path):
        # A writer dying inside an uncommitted insert costs exactly that
        # insert: every committed record is served on reopen.
        path = str(tmp_path / "plans.sqlite")
        process = multiprocessing.get_context("spawn").Process(
            target=_crash_worker, args=(path,))
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 1
        with ResultStore(path) as store:
            assert len(store) == 3
            assert store.get(f"{0:032d}{1:032d}") == {"step_time": 0.001}
            assert store.get(KEY) is None

    def test_json_lines_file_is_refused_untouched(self, tmp_path):
        # Stores written before the single SQLite format are refused,
        # byte-identical, with no WAL or shared-memory file left beside.
        path = tmp_path / "plans.jsonl"
        path.write_text(json.dumps({"key": KEY, "payload": PAYLOAD}) + "\n")
        before = path.read_bytes()
        with pytest.raises(StoreError, match="not a database"):
            ResultStore(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["plans.jsonl"]

    def test_foreign_database_is_refused_untouched(self, tmp_path):
        # A database without a plans table is someone else's: the store
        # reads its table list and stops, before any pragma or CREATE.
        path = tmp_path / "other.db"
        _foreign_database(path)
        before = path.read_bytes()
        with pytest.raises(StoreError, match="but no 'plans' table"):
            ResultStore(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["other.db"]

    def test_empty_file_becomes_a_store(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        path.write_bytes(b"")
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == PAYLOAD

    def test_sqlite_durable_sets_full_synchronous(self, tmp_path):
        with ResultStore(tmp_path / "plans.sqlite", durable=True) as store:
            assert store._conn.execute(
                "PRAGMA synchronous").fetchone()[0] == 2  # FULL
        with ResultStore(tmp_path / "fast.sqlite") as store:
            assert store._conn.execute(
                "PRAGMA synchronous").fetchone()[0] == 1  # NORMAL


def _fill_worker(path, prefix, count):
    with ResultStore(path) as store:
        _fill(store, count, prefix=prefix)


def _crash_worker(path):
    store = ResultStore(path)
    _fill(store, 3)
    # Start a fourth record but die before it commits.
    store._conn.execute("INSERT INTO plans (key, payload) VALUES (?, ?)",
                        (KEY, json.dumps(PAYLOAD)))
    os._exit(1)


class TestStoreCli:
    def test_stats_verb(self, tmp_path, capsys):
        path = tmp_path / "plans.sqlite"
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
            store.put(OTHER_KEY, PAYLOAD)
        assert cli_main(["store", "stats", str(path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["path"] == str(path)
        assert document["entries"] == 2
        assert document["file_bytes"] > 0

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["store", "stats",
                         str(tmp_path / "missing.sqlite")]) == 2
        assert "no such store file" in capsys.readouterr().err

    @pytest.mark.parametrize("make, reason", [
        (lambda path: path.write_text("not a database\n"),
         "file is not a database"),
        (_foreign_database, "not a result store"),
    ], ids=["text", "foreign-sqlite"])
    @pytest.mark.parametrize("argv", [
        ["store", "stats", "{path}"],
        # --deadline 0 makes a server that did open the store exit at once
        # instead of serving forever.
        ["serve", "--port", "0", "--deadline", "0", "--store", "{path}"],
        ["sweep", "fig14", "--reduced", "--store", "{path}", "--no-write"],
    ], ids=["store-stats", "serve", "sweep"])
    def test_unopenable_store_is_a_usage_error(self, tmp_path, capsys,
                                               argv, make, reason):
        path = tmp_path / "bad.sqlite"
        make(path)
        before = path.read_bytes()
        assert cli_main([arg.format(path=path) for arg in argv]) == 2
        assert (f"error: cannot open result store {path}: {reason}"
                in capsys.readouterr().err)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["bad.sqlite"]


class TestLoadtest:
    def test_loadtest_against_live_server(self, make_server, tmp_path):
        from repro.server.loadtest import run_loadtest

        harness = make_server(
            store_path=str(tmp_path / "plans.sqlite"))
        report = run_loadtest(port=harness.port, requests=20,
                              dedup_ratio=0.8, concurrency=4, timeout=30.0)
        assert report["completed"] == 20
        assert report["error_count"] == 0
        assert report["unique_scenarios"] == 4
        # 4 unique scenarios evaluated; 16 served from store/in-flight.
        assert report["sources"].get("evaluated", 0) == 4
        assert report["cache_hit_rate"] == pytest.approx(0.8)
        for quantile in ("p50", "p95", "p99"):
            assert report["latency"][quantile] > 0.0
        assert report["server_metrics"]["store"]["entries"] == 4
        assert report["server_metrics"]["shed"] == 0

    def test_loadtest_cli_slo_gate(self, make_server, tmp_path, capsys):
        harness = make_server(store_path=str(tmp_path / "plans.sqlite"))
        assert cli_main(["loadtest", "--server",
                         f"127.0.0.1:{harness.port}",
                         "--requests", "10", "--dedup-ratio", "0.5",
                         "--concurrency", "2",
                         "--min-cache-hit-rate", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "cache-hit rate" in out and "p99" in out

    def test_loadtest_cli_fails_below_slo(self, make_server, tmp_path,
                                          capsys):
        harness = make_server(store_path=str(tmp_path / "plans.sqlite"))
        # dedup 0.0 -> every request unique -> hit rate 0 < the 0.9 SLO.
        assert cli_main(["loadtest", "--server",
                         f"127.0.0.1:{harness.port}",
                         "--requests", "4", "--dedup-ratio", "0.0",
                         "--concurrency", "2",
                         "--min-cache-hit-rate", "0.9"]) == 1
        assert "below the --min-cache-hit-rate SLO" \
            in capsys.readouterr().err

    def test_unreachable_server_reports_cleanly(self, capsys):
        assert cli_main(["loadtest", "--server", "127.0.0.1:1",
                        "--requests", "2", "--concurrency", "1",
                         "--timeout", "2"]) == 1
        assert "no request completed" in capsys.readouterr().err

    def test_bad_parameters_are_usage_errors(self, capsys):
        assert cli_main(["loadtest", "--server", "not a url //",
                         "--requests", "2"]) == 2
        assert cli_main(["loadtest", "--requests", "0"]) == 2
        assert cli_main(["loadtest", "--dedup-ratio", "1.5"]) == 2
        capsys.readouterr()
