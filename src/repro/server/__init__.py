"""The plan server: cached, concurrent, *resilient* Scenario serving.

A long-lived front end over the Scenario API — requests are deduplicated
by :class:`~repro.server.scheduler.PlanScheduler` and evaluated one per
worker lane, served across restarts from the SQLite
:class:`~repro.server.store.ResultStore`, exposed over HTTP by
:class:`~repro.server.http.PlanServer` (``repro serve``), and spoken to by
:class:`~repro.server.client.PlanClient` (``repro submit``) and by
:func:`~repro.server.portfolio.run_portfolio_remote` (``repro sweep
--server``, one ``POST /v1/plan`` per unique point).

The stack is built to survive the failures it will meet at scale: the
scheduler self-heals around crashed pool workers (lane replacement +
re-dispatch of the one request that lane was running), per-request
deadlines and admission control bound tail latency and memory, the client
retries idempotent requests with jittered backoff
(:mod:`repro.server.resilience` owns the shared failure taxonomy and
:class:`~repro.server.resilience.RetryPolicy`), and every failure path is
drivable deterministically via :mod:`repro.server.faults` (``repro serve
--chaos <spec>``).

Quick start::

    $ python -m repro serve --port 8099 --store results/plan_store.sqlite &
    $ echo '{"schema_version": 1, "workload": {"model": "gpt3-6.7b"}}' \\
        | python -m repro submit - --port 8099
"""

from repro.server.client import PlanClient, PlanServerError
from repro.server.faults import (
    FaultInjector,
    FaultSpecError,
    InjectedStoreWriteError,
    InjectedWorkerCrash,
)
from repro.server.http import PlanServer
from repro.server.portfolio import (
    PointOutcome,
    build_sweep_manifest,
    run_portfolio_local,
    run_portfolio_remote,
    sweep_portfolio,
)
from repro.server.resilience import Failure, RetryPolicy, classify_exception
from repro.server.scheduler import PlanRequestError, PlanScheduler, error_payload
from repro.server.store import ResultStore, StoreError, store_stats

__all__ = [
    "Failure",
    "FaultInjector",
    "FaultSpecError",
    "InjectedStoreWriteError",
    "InjectedWorkerCrash",
    "PlanClient",
    "PlanRequestError",
    "PlanScheduler",
    "PlanServer",
    "PlanServerError",
    "PointOutcome",
    "ResultStore",
    "RetryPolicy",
    "StoreError",
    "build_sweep_manifest",
    "classify_exception",
    "error_payload",
    "run_portfolio_local",
    "run_portfolio_remote",
    "store_stats",
    "sweep_portfolio",
]
