"""The plan server's result store: one SQLite database keyed by scenario hash.

A :class:`ResultStore` maps a :meth:`Scenario.cache_key
<repro.api.scenario.Scenario.cache_key>` to the serialized
:class:`~repro.api.service.PlanResult` payload that scenario evaluated to.
It is the server's cross-restart memory: the scheduler consults it before
queueing work, so an identical request submitted after a restart is served
without re-running the solver.

The store is one SQLite database with one keyed table, in WAL mode, and a
re-put upserts its row. ``path`` names the database file; ``None`` keeps
the database in memory (the mode ``repro run``, ``repro serve`` without
``--store`` and most tests use). Opening reads no records, and a re-put
replaces its row, so neither restarts nor re-puts grow the file without
bound. ``durable=True`` sets ``synchronous=FULL``, so an acknowledged
record survives a host crash, not only a process crash.

Payloads are stored in their canonical serialized form and every ``get``
hands back a freshly decoded copy, so a caller mutating a served payload
can never corrupt what later requests receive.

A file that is not a result store is refused with :class:`StoreError` and
left untouched: one that is not an SQLite database (a JSON-lines store
written by older versions, say), or a database that holds tables but no
``plans`` table. Opening reads the table list before it sets any pragma or
creates anything, so a foreign database keeps its bytes and journal mode.
An empty or new file becomes a store. The store only caches deterministic
evaluations, so a fresh store recomputes its answers on demand.

``repro store stats PATH`` prints :func:`store_stats` of a store file.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, Optional

from repro.obs.metrics import CounterBundle
from repro.obs.tracing import span

class StoreError(OSError):
    """A result-store failure: a file that cannot be opened as a store, or
    a failed write. An :class:`OSError` so the scheduler's failed-write
    containment (``store_write_failures``) covers it."""


def _connect(database: str, durable: bool) -> sqlite3.Connection:
    """An open connection to ``database`` with the ``plans`` table.

    Raises:
        StoreError: when the database holds tables but no ``plans`` table
            (it is left as it was).
    """
    # check_same_thread=False: the store is owned by one scheduler, but
    # test harnesses open and close it across a thread boundary.
    conn = sqlite3.connect(database, check_same_thread=False)
    try:
        tables = sorted(row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"))
        if tables and "plans" not in tables:
            raise StoreError(f"not a result store: it holds tables "
                             f"{', '.join(tables)} but no 'plans' table")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous="
                     + ("FULL" if durable else "NORMAL"))
        conn.execute("CREATE TABLE IF NOT EXISTS plans ("
                     "key TEXT PRIMARY KEY, payload TEXT NOT NULL)")
        conn.commit()
    except (sqlite3.Error, StoreError):
        conn.close()
        raise
    return conn


class ResultStore:
    """Persistent ``scenario cache key -> result payload`` map with counters.

    Args:
        path: the SQLite database file (created with its parent directory
            when missing). ``None`` keeps the database in memory.
        durable: survive a *host* crash, not just a process crash
            (``synchronous=FULL``).

    Attributes:
        hits: ``get`` calls that found a payload.
        misses: ``get`` calls that found nothing.
        writes: ``put`` calls.

    Raises:
        StoreError: when ``path`` cannot be opened as a result store.
    """

    def __init__(self, path: Optional[str] = None,
                 durable: bool = False) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.counters = CounterBundle(hits=0, misses=0, writes=0)
        with span("store.load", path=self.path or "memory"):
            try:
                directory = os.path.dirname(self.path or "")
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._conn = _connect(self.path or ":memory:", durable)
            except (OSError, sqlite3.Error) as error:
                raise StoreError(f"cannot open result store {self.path}: "
                                 f"{error}") from error

    @property
    def hits(self) -> int:
        return self.counters.hits

    @property
    def misses(self) -> int:
        return self.counters.misses

    @property
    def writes(self) -> int:
        return self.counters.writes

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM plans").fetchone()[0]

    def __contains__(self, key: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM plans WHERE key = ?", (key,)).fetchone() \
            is not None

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or ``None`` (counts hit/miss).

        Callers get a freshly decoded copy of the canonical serialized
        form: mutating a served payload can never corrupt what later
        requests receive, and the serving path never pays a deepcopy.
        """
        row = self._conn.execute(
            "SELECT payload FROM plans WHERE key = ?", (key,)).fetchone()
        if row is None:
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return json.loads(row[0])

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store one payload (upsert), committed before this returns."""
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
        try:
            self._conn.execute(
                "INSERT INTO plans (key, payload) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload",
                (key, text))
            self._conn.commit()
        except sqlite3.Error as error:
            raise StoreError(f"result store {self.path or 'memory'}: "
                             f"write failed: {error}") from error
        self.counters.writes += 1

    def stats(self) -> Dict[str, object]:
        """Plain-JSON counter snapshot for ``GET /metrics``."""
        return {
            **self.counters.snapshot(),
            "entries": len(self),
            "persistent": self.path is not None,
        }

    def close(self) -> None:
        """Release the database connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def store_stats(path: str) -> Dict[str, object]:
    """Offline entry count and on-disk size of a store file.

    Raises:
        StoreError: when ``path`` cannot be opened as a result store.
    """
    with ResultStore(path) as store:
        entries = len(store)
    return {"path": os.fspath(path), "entries": entries,
            "file_bytes": os.path.getsize(path)}
