"""Shared fixtures of the plan-server test modules.

One real :class:`~repro.server.http.PlanServer` (ephemeral port, disk-backed
store, in-process worker) is started per test module in a background thread;
tests talk to it with the blocking :class:`~repro.server.client.PlanClient`
exactly like ``repro submit`` / ``repro sweep --server`` do.

The harness never sleeps to synchronise: startup is gated on a
``threading.Event`` set once the server has bound its (ephemeral) port, and
:meth:`ServerHarness.drain` exposes the scheduler's explicit drain for tests
that must observe a settled queue.
"""

import asyncio
import threading

import pytest

from repro.server.client import PlanClient
from repro.server.http import PlanServer
from repro.server.scheduler import PlanScheduler
from repro.server.store import ResultStore


class ServerHarness:
    """A PlanServer running its own asyncio loop in a daemon thread."""

    def __init__(self, store_path=None, jobs=1, deadline=None,
                 max_queue=None, chaos=None):
        self._store_path = store_path
        self._jobs = jobs
        self._deadline = deadline
        self._max_queue = max_queue
        self._chaos = chaos
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._server = None
        self.port = None
        self.error = None

    def start(self):
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("plan server did not start in time")
        if self.error is not None:
            raise RuntimeError(f"plan server failed to start: {self.error}")

    def _thread_main(self):
        try:
            asyncio.run(self._amain())
        except Exception as error:  # surface startup failures to the test
            self.error = error
            self._ready.set()

    async def _amain(self):
        store = (ResultStore(self._store_path)
                 if self._store_path is not None else None)
        scheduler = PlanScheduler(store=store, jobs=self._jobs,
                                  deadline=self._deadline,
                                  max_queue=self._max_queue,
                                  chaos=self._chaos)
        server = PlanServer(scheduler, host="127.0.0.1", port=0)
        await server.start()
        self._server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

    @property
    def scheduler(self):
        return self._server.scheduler

    def drain(self, timeout=30):
        """Block until every queued and in-flight request has resolved."""
        future = asyncio.run_coroutine_threadsafe(
            self._server.scheduler.drain(), self._loop)
        future.result(timeout)

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("plan server did not shut down in time")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One running plan server (ephemeral port) per test module."""
    harness = ServerHarness(
        tmp_path_factory.mktemp("plan-server") / "store.sqlite")
    harness.start()
    yield harness
    harness.stop()


@pytest.fixture
def client(server):
    """A blocking client bound to the module's server."""
    return PlanClient(port=server.port, timeout=60.0)


@pytest.fixture
def make_server():
    """A factory for per-test servers with custom knobs (chaos, deadline).

    The chaos tests need private servers — an armed
    :class:`~repro.server.faults.FaultInjector` is stateful, so sharing the
    module-scoped server would leak one test's faults into the next.
    """
    harnesses = []

    def _make(**kwargs):
        harness = ServerHarness(**kwargs)
        harness.start()
        harnesses.append(harness)
        return harness

    yield _make
    for harness in harnesses:
        harness.stop()
