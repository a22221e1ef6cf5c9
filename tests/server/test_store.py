"""Tests of the SQLite result store."""

import threading

import pytest

from repro.obs.tracing import configure_tracing, disable_tracing, read_trace
from repro.server.store import ResultStore

#: The first 16 bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"

KEY = "a" * 64
OTHER_KEY = "b" * 64
PAYLOAD = {"kind": "single_wafer", "model": "gpt3-6.7b", "step_time": 0.5}


def _exact(value):
    """``value`` with every leaf as (type, repr), dict keys sorted: equal
    only when types and float bits match (``-0.0`` is not ``0.0``)."""
    if isinstance(value, dict):
        return sorted((key, _exact(item)) for key, item in value.items())
    if isinstance(value, list):
        return [_exact(item) for item in value]
    return type(value).__name__, repr(value)


class TestMemoryStore:
    def test_get_put_roundtrip_and_counters(self):
        store = ResultStore(None)
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)
        assert len(store) == 1
        assert KEY in store
        assert OTHER_KEY not in store

    def test_returned_payload_is_isolated(self):
        store = ResultStore(None)
        store.put(KEY, PAYLOAD)
        served = store.get(KEY)
        served["step_time"] = -1.0
        assert store.get(KEY)["step_time"] == PAYLOAD["step_time"]

    def test_put_copies_its_argument(self):
        store = ResultStore(None)
        payload = dict(PAYLOAD)
        store.put(KEY, payload)
        payload["step_time"] = -1.0
        assert store.get(KEY)["step_time"] == PAYLOAD["step_time"]

    def test_stats_document(self):
        store = ResultStore(None)
        store.put(KEY, PAYLOAD)
        store.get(KEY)
        store.get(OTHER_KEY)
        assert store.stats() == {"hits": 1, "misses": 1, "writes": 1,
                                 "entries": 1, "persistent": False}

    def test_memory_stores_are_independent(self):
        first, second = ResultStore(None), ResultStore(None)
        first.put(KEY, PAYLOAD)
        assert second.get(KEY) is None
        assert (len(first), len(second)) == (1, 0)

    def test_memory_store_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with ResultStore(None, durable=True) as store:
            store.put(KEY, PAYLOAD)
            assert store.get(KEY) == PAYLOAD
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("payload", [
        {"step_time": 0.1 + 0.2, "tiny": 5e-324,
         "huge": 1.7976931348623157e308, "negative_zero": -0.0},
        {"throughput": 57887.123456789012, "memory_gb": [79.99999999999999]},
        {"plan": {"dp": 1, "tp": 16, "sp": 1, "tatp": 1, "pp": 4},
         "stages": [[0, 1], [2, 3]]},
        {"oom": True, "step_time": None, "error": "", "count": 2 ** 62},
        {"model": "llama3-70b", "note": "\u00b5-ring \u2192 \u03c4 \u00e9"},
    ], ids=["extreme-floats", "float-repr", "nested", "scalars", "unicode"])
    def test_payload_round_trips_exactly(self, payload):
        # Served payloads must be bit-identical to the evaluation's: every
        # float, nested container and string decodes to what was put.
        store = ResultStore(None)
        store.put(KEY, payload)
        served = store.get(KEY)
        assert served == payload
        assert _exact(served) == _exact(payload)

    def test_non_finite_payload_is_refused_and_not_stored(self):
        store = ResultStore(None)
        with pytest.raises(ValueError):
            store.put(KEY, {"step_time": float("nan")})
        assert KEY not in store
        assert (len(store), store.writes) == (0, 0)

    def test_equal_payloads_store_identical_text(self):
        # The canonical serialized form ignores key insertion order.
        store = ResultStore(None)
        store.put(KEY, {"a": 1, "b": {"c": 2.5, "d": None}})
        store.put(OTHER_KEY, {"b": {"d": None, "c": 2.5}, "a": 1})
        texts = {key: text for key, text in store._conn.execute(
            "SELECT key, payload FROM plans")}
        assert texts[KEY] == texts[OTHER_KEY]

    def test_store_is_usable_from_another_thread(self):
        store = ResultStore(None)
        store.put(KEY, PAYLOAD)
        seen = []

        def worker():
            seen.append(store.get(KEY))
            store.put(OTHER_KEY, PAYLOAD)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert seen == [PAYLOAD]
        assert store.get(OTHER_KEY) == PAYLOAD
        store.close()

class TestDiskStore:
    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == PAYLOAD
            assert reopened.stats()["persistent"] is True
            # Counters are per-process, not persisted.
            assert reopened.writes == 0

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.put(KEY, {"step_time": 1.0})
            store.put(KEY, {"step_time": 2.0})
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == {"step_time": 2.0}
            assert len(reopened) == 1

    def test_missing_file_starts_empty(self, tmp_path):
        with ResultStore(tmp_path / "fresh.sqlite") as store:
            assert len(store) == 0

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "store.sqlite"
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
        assert path.exists()

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite")
        store.close()
        store.close()

    def test_clean_file_loads_without_warning(self, tmp_path, recwarn,
                                              caplog):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == PAYLOAD
        assert len(recwarn) == 0
        assert caplog.records == []

    @pytest.mark.parametrize("name", [
        "plans.sqlite", "plans.sqlite3", "plans.db", "plans.SQLITE",
        "plans.jsonl", "plans.txt", "plans",
    ])
    def test_every_path_is_an_sqlite_database(self, tmp_path, name):
        # No file name selects another format: a new store at any path is
        # an SQLite database that a reopen serves.
        path = tmp_path / name
        with ResultStore(path) as store:
            store.put(KEY, PAYLOAD)
        assert path.read_bytes()[:len(SQLITE_HEADER)] == SQLITE_HEADER
        with ResultStore(path) as reopened:
            assert reopened.get(KEY) == PAYLOAD

    def test_file_store_uses_wal_journal(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            assert store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_put_is_committed_before_it_returns(self, tmp_path):
        # A second connection sees the record while the writer stays open.
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as writer:
            writer.put(KEY, PAYLOAD)
            with ResultStore(path) as reader:
                assert reader.get(KEY) == PAYLOAD

    def test_uncommitted_write_does_not_block_readers(self, tmp_path):
        # WAL: a store opened beside a writer holding an open transaction
        # serves every committed record and none of the uncommitted ones.
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as writer:
            writer.put(KEY, PAYLOAD)
            writer._conn.execute(
                "INSERT INTO plans (key, payload) VALUES (?, ?)",
                (OTHER_KEY, "{}"))
            assert writer._conn.in_transaction
            with ResultStore(path) as reader:
                assert len(reader) == 1
                assert reader.get(KEY) == PAYLOAD
                assert reader.get(OTHER_KEY) is None


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "file"])
def test_open_is_traced_as_store_load(tmp_path, on_disk):
    path = tmp_path / "plans.sqlite" if on_disk else None
    trace = tmp_path / "trace.jsonl"
    configure_tracing(path=str(trace))
    try:
        ResultStore(path).close()
    finally:
        disable_tracing()
    records = [record for record in read_trace(str(trace))
               if record["name"] == "store.load"]
    assert len(records) == 1
    assert records[0]["attrs"] == {
        "path": str(path) if on_disk else "memory"}
