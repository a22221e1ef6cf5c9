"""The portfolio sweep engine: scenario families through the plan scheduler.

This is the batch backbone of the plan server. A
:class:`~repro.api.portfolio.Portfolio` expands into ordered points; the
engine de-duplicates them via :meth:`Scenario.cache_key
<repro.api.scenario.Scenario.cache_key>` and streams the unique scenarios
through a :class:`~repro.server.scheduler.PlanScheduler` — so the
in-flight dedup map, the warm worker lanes, and the cross-restart
:class:`~repro.server.store.ResultStore` are all reused for free. Every
point gets its own :class:`PointOutcome` (duplicates share the payload of
one evaluation).

Four front ends drive it:

* :func:`run_portfolio_local` — ``repro sweep <name>`` without a server:
  spins up a private scheduler for the sweep's lifetime.
* :func:`run_portfolio_remote` — ``repro sweep <name> --server``: the same
  sweep on the client, with a live plan server in the scheduler's place
  (one ``POST /v1/plan`` per unique point, two in flight per server lane
  and never more than the server's ``max_queue``).
* :func:`repro.runner.orchestrator.run_all` — ``repro run``: one scheduler
  for the whole run sweeps every Scenario figure's portfolio.
* :func:`build_sweep_manifest` — turns the outcomes into a
  ``results/<figure>.json`` manifest built by
  :func:`repro.runner.manifest.build_manifest` (validated by ``repro
  check``).
"""

from __future__ import annotations

import asyncio
import copy
import http.client
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional

from repro.api.portfolio import Portfolio, PortfolioPoint
from repro.obs.tracing import span
from repro.server.client import PlanClient, PlanServerError
from repro.server.resilience import RetryPolicy, classify_exception
from repro.server.scheduler import PlanRequestError, PlanScheduler, error_payload

#: Default cap on points one portfolio may expand to.
MAX_POINTS = 4096

#: Default shed-retry policy of sweeps: a sweep is a batch producer, so it
#: backs off patiently when admission control pushes back.
SWEEP_RETRY = RetryPolicy(max_attempts=6, base_delay=0.05, max_delay=1.0)

#: Request failures a sweep backs off from and re-sends: a shed point, and
#: (remote sweeps only) a refused or dropped connection.
RETRIED_KINDS = ("overloaded", "unreachable")


@dataclass
class PointOutcome:
    """Served result of one portfolio point.

    ``source`` is the scheduler trace (``store`` / ``inflight`` /
    ``evaluated``) of the point's unique scenario, ``"duplicate"`` when the
    point shared another point's evaluation, or ``"failed"`` when the
    request could not be served at all (payload is then a structured
    ``{"error": ...}`` document).
    """

    index: int
    params: Dict[str, object]
    payload: Dict[str, object]
    source: str
    wall_seconds: float
    key: str


async def sweep_portfolio(
    scheduler,
    portfolio: Portfolio,
    points: Optional[List[PortfolioPoint]] = None,
    on_unique: Optional[Callable[[int, int, PointOutcome], None]] = None,
    max_points: Optional[int] = MAX_POINTS,
    retry: Optional[RetryPolicy] = None,
    max_concurrency: Optional[int] = None,
) -> List[PointOutcome]:
    """Serve every point of ``portfolio`` through ``scheduler``.

    Args:
        scheduler: a started :class:`PlanScheduler` (owned by the caller),
            or anything else with its ``submit_traced(scenario, key)``
            coroutine and ``max_queue`` attribute — the remote sweep
            passes a live server's adapter.
        portfolio: the family to sweep.
        points: pre-expanded points (skips re-expansion when the caller
            already validated them).
        on_unique: optional callback invoked after each *unique* scenario
            resolves, with ``(completed_unique, total_unique, outcome)`` —
            the CLI's incremental-progress hook.
        max_points: expansion cap (``None`` disables it).
        retry: backoff policy for points shed by admission control, or
            refused or dropped by a remote server (:data:`RETRIED_KINDS`;
            defaults to :data:`SWEEP_RETRY`); a point still refused after
            it is exhausted becomes a ``"failed"`` outcome.
        max_concurrency: optional cap on simultaneously submitted unique
            points — the sweep's own backpressure valve. Defaults to the
            scheduler's ``max_queue`` when one is set, so a sweep never
            floods its own admission controller.

    Returns:
        One :class:`PointOutcome` per point, in point order. Per-scenario
        failures come back as structured error payloads; a request the
        scheduler refuses (shutdown, deadline, an exhausted shed-retry)
        surfaces as an error payload with source ``"failed"``. The call
        itself does not raise for bad scenarios.
    """
    if points is None:
        points = portfolio.expand(max_points=max_points)
    if retry is None:
        retry = SWEEP_RETRY
    if max_concurrency is None:
        max_concurrency = scheduler.max_queue
    gate = (asyncio.Semaphore(max_concurrency)
            if max_concurrency is not None else None)
    unique: Dict[str, List[PortfolioPoint]] = {}
    for point in points:
        unique.setdefault(point.key, []).append(point)
    total = len(unique)
    completed = 0

    async def _submit(point: PortfolioPoint) -> tuple:
        attempt = 0
        while True:
            try:
                return await scheduler.submit_traced(point.scenario,
                                                     key=point.key)
            except PlanRequestError as error:
                # Shed (or unreachable) points back off and re-enter;
                # everything else (shutdown, deadline) is final for this
                # point.
                attempt += 1
                if (error.kind not in RETRIED_KINDS
                        or attempt >= retry.max_attempts):
                    return error.payload, "failed"
                await asyncio.sleep(retry.delay(attempt))

    async def _serve(key: str) -> Dict[str, object]:
        nonlocal completed
        first = unique[key][0]
        start = time.perf_counter()
        with span("sweep.point", cache_key=key, fanout=len(unique[key])):
            if gate is not None:
                async with gate:
                    payload, source = await _submit(first)
            else:
                payload, source = await _submit(first)
        wall = time.perf_counter() - start
        outcome = PointOutcome(
            index=first.index, params=first.params, payload=payload,
            source=source, wall_seconds=wall, key=key)
        completed += 1
        if on_unique is not None:
            on_unique(completed, total, outcome)
        return {"payload": payload, "source": source, "wall": wall}

    served = dict(zip(unique, await asyncio.gather(
        *(_serve(key) for key in unique))))

    # Each served payload is the sweep's own copy; only the points that
    # share a key with an earlier one need a copy of it.
    outcomes: List[PointOutcome] = []
    seen_keys: set = set()
    for point in points:
        result = served[point.key]
        duplicate = point.key in seen_keys
        seen_keys.add(point.key)
        outcomes.append(PointOutcome(
            index=point.index,
            params=point.params,
            payload=(copy.deepcopy(result["payload"]) if duplicate
                     else result["payload"]),
            source="duplicate" if duplicate else result["source"],
            # A duplicate point cost nothing: its evaluation's wall time is
            # accounted to the first point sharing the key.
            wall_seconds=0.0 if duplicate else result["wall"],
            key=point.key,
        ))
    return outcomes


def run_portfolio_local(
    portfolio: Portfolio,
    jobs: int = 1,
    store=None,
    points: Optional[List[PortfolioPoint]] = None,
    on_unique: Optional[Callable[[int, int, PointOutcome], None]] = None,
    max_points: Optional[int] = MAX_POINTS,
) -> List[PointOutcome]:
    """Sweep ``portfolio`` on a private scheduler (the offline CLI path).

    ``jobs``/``store`` configure the short-lived :class:`PlanScheduler`
    exactly like ``repro serve`` would; ``points`` skips re-expansion when
    the caller already holds them.
    """
    if points is None:
        points = portfolio.expand(max_points=max_points)

    async def _run() -> List[PointOutcome]:
        async with PlanScheduler(store=store, jobs=jobs) as scheduler:
            return await sweep_portfolio(
                scheduler, portfolio, points=points, on_unique=on_unique,
                max_points=max_points)

    return asyncio.run(_run())


#: One try per request: the sweep owns backoff (:data:`SWEEP_RETRY`).
_ONE_TRY = RetryPolicy(max_attempts=1)

#: Requests a remote sweep keeps in flight per server lane: one being
#: evaluated and one waiting, so no lane idles while an answer travels
#: back to the client.
REQUESTS_PER_LANE = 2


class _RemoteScheduler:
    """A live plan server in :func:`sweep_portfolio`'s scheduler place.

    Each unique point is one blocking ``POST /v1/plan`` on a thread of the
    adapter's own pool, tried once. The server's lane count (``jobs``) and
    admission bound (``max_queue``) are read once from its ``GET
    /metrics`` (with the client's default retries); ``max_queue`` here is
    the number of requests the sweep keeps in flight —
    :data:`REQUESTS_PER_LANE` per lane, never more than the server admits.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        try:
            metrics = PlanClient(host=host, port=port,
                                 timeout=timeout).metrics()
        except http.client.HTTPException as error:
            raise ConnectionError(
                f"{host}:{port} did not answer GET /metrics over HTTP: "
                f"{error!r}") from None
        jobs, server_queue = _server_limits(metrics, host, port)
        self.max_queue = REQUESTS_PER_LANE * jobs
        if server_queue is not None:
            self.max_queue = min(self.max_queue, server_queue)
        self._pool = ThreadPoolExecutor(max_workers=self.max_queue,
                                        thread_name_prefix="repro-sweep")

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def submit_traced(self, scenario, key=None):
        # ``key`` goes unused: the server hashes the document it receives.
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, self._plan, scenario)

    def _plan(self, scenario) -> tuple:
        # One client per request: a client records its last source.
        client = PlanClient(host=self.host, port=self.port,
                            timeout=self.timeout, retry=_ONE_TRY)
        try:
            payload = client.plan(scenario)
        except PlanServerError as error:
            detail = (error.payload.get("error")
                      if isinstance(error.payload, dict) else None)
            if not isinstance(detail, dict):
                return self._failure(
                    f"answered {error.status} without an error document",
                    kind="protocol", status=error.status), "failed"
            if client.last_source is not None:
                # The server evaluated the point, and the evaluation failed.
                return error.payload, client.last_source
            if detail.get("type") == "overloaded":
                raise PlanRequestError(
                    str(detail.get("message", error)), kind="overloaded",
                    status=503, retryable=True) from None
            return error.payload, "failed"
        except (ConnectionError, http.client.HTTPException) as error:
            # Refused, dropped or cut short: a plan request is idempotent by
            # its cache key, so the sweep backs off and re-sends it, as
            # after a shed.
            raise PlanRequestError(
                f"plan server at {self.host}:{self.port} did not answer: "
                f"{error!r}", kind="unreachable", status=503,
                retryable=True) from None
        except OSError as error:
            # Timed out: the caller's budget is spent, so the point fails.
            failure = classify_exception(error)
            return self._failure(f"did not answer: {error}",
                                 kind=failure.kind, status=failure.status,
                                 retryable=failure.retryable), "failed"
        if client.last_source is None or not isinstance(payload, dict):
            return self._failure(
                "answered 200 without a plan and its X-Repro-Source",
                kind="protocol", status=200), "failed"
        return payload, client.last_source

    def _failure(self, message: str, **kwargs) -> Dict[str, object]:
        return error_payload(
            f"plan server at {self.host}:{self.port} {message}", **kwargs)


def _server_limits(metrics, host: str, port: int) -> tuple:
    """``(jobs, max_queue)`` of a plan server's ``GET /metrics`` document.

    Raises:
        PlanServerError: when the document does not carry them, i.e. the
            address answers HTTP but is not a plan server.
    """
    def _count(value) -> bool:
        return (isinstance(value, int) and not isinstance(value, bool)
                and value >= 1)

    scheduler = metrics.get("scheduler") if isinstance(metrics, dict) \
        else None
    if isinstance(scheduler, dict):
        jobs = scheduler.get("jobs")
        max_queue = scheduler.get("max_queue", 0)
        if _count(jobs) and (max_queue is None or _count(max_queue)):
            return jobs, max_queue
    raise PlanServerError(200, error_payload(
        f"{host}:{port} is not a plan server: its GET /metrics has no "
        f"scheduler.jobs and scheduler.max_queue", kind="protocol",
        status=200))


def run_portfolio_remote(
    portfolio: Portfolio,
    host: str,
    port: int,
    points: Optional[List[PortfolioPoint]] = None,
    on_unique: Optional[Callable[[int, int, PointOutcome], None]] = None,
    timeout: float = 120.0,
) -> List[PointOutcome]:
    """Sweep ``portfolio`` through a running plan server (``--server``).

    The twin of :func:`run_portfolio_local`: the same engine runs on the
    client, and each unique point becomes one ``POST /v1/plan`` whose
    ``X-Repro-Source`` header is its source, also when the evaluation
    failed. ``timeout`` bounds each request, not the sweep. A point the
    server sheds, or whose connection is refused or dropped, backs off
    under :data:`SWEEP_RETRY`; any other failed request (a timeout
    included) is a ``"failed"`` outcome carrying a structured error
    payload.

    Raises:
        OSError: when the server cannot be reached to read its
            ``/metrics``.
        PlanServerError: when that read is answered with an error, or
            with a document that is not a plan server's.
    """
    server = _RemoteScheduler(host, port, timeout)
    try:
        return asyncio.run(sweep_portfolio(
            server, portfolio, points=points, on_unique=on_unique))
    finally:
        server.close()


# Manifest building ---------------------------------------------------------------


def default_row(params: Mapping[str, object],
                payload: Mapping[str, object]) -> Dict[str, object]:
    """Ad-hoc row mapper: the whole result payload (minus param collisions).

    Used when a portfolio is not a figure's: the row is the point's params
    merged with every :class:`PlanResult` field.
    """
    return {key: value for key, value in payload.items()
            if key not in params}


def _default_schema(portfolio: Portfolio) -> List[str]:
    """Row columns of an ad-hoc sweep manifest (params + PlanResult)."""
    from repro.api.service import PlanResult

    param_names = [axis.name for axis in portfolio.axes if axis.record]
    return param_names + [
        result_field.name for result_field in fields(PlanResult)
        if result_field.name not in param_names]


def build_sweep_manifest(
    portfolio: Portfolio,
    outcomes: List[PointOutcome],
    reduced: bool = False,
    jobs: int = 1,
    total_seconds: float = 0.0,
    mode: str = "local",
    experiment=None,
) -> Dict[str, object]:
    """The sweep's ``results/<figure>.json`` manifest document.

    For a figure's portfolio (``experiment`` given), the manifest borrows
    the figure's identity, registered grid and schema, and its rows come
    from the figure's row mapper: it is the manifest ``repro run
    <figure>`` writes. Otherwise the identity is the portfolio's own, the
    grid is the list of point params, and the rows are params + the
    :class:`PlanResult` fields.

    Error payloads become failed cells (``error`` set, no row), so
    :func:`repro.runner.manifest.validate_manifest` surfaces them.
    """
    # Imported here: the runner is not needed to serve plans.
    from repro.runner.manifest import (
        build_manifest,
        cell_entry,
        experiment_identity,
        finite,
    )

    row_builder = experiment.row if experiment is not None else default_row
    cells: List[Dict[str, object]] = []
    rows: List[Dict[str, object]] = []
    source_counts: Dict[str, int] = {}
    for outcome in outcomes:
        source_counts[outcome.source] = \
            source_counts.get(outcome.source, 0) + 1
        error = None
        cell_rows: List[Dict[str, object]] = []
        if "error" in outcome.payload:
            error = str(outcome.payload["error"].get("message",
                                                     outcome.payload["error"]))
        else:
            cell_rows.append(finite({**outcome.params,
                                     **row_builder(outcome.params,
                                                   outcome.payload)}))
        cells.append(cell_entry(outcome.params, cell_rows,
                                outcome.wall_seconds, error))
        rows.extend(cell_rows)

    if experiment is not None:
        identity = experiment_identity(experiment)
        grid = experiment.grid(reduced)
        schema = list(experiment.schema)
    else:
        identity = {
            "figure": portfolio.name,
            "paper": "portfolio",
            "title": portfolio.description or portfolio.describe(),
            "module": "repro.api.portfolio",
        }
        grid = [dict(outcome.params) for outcome in outcomes]
        schema = _default_schema(portfolio)

    return build_manifest(
        identity, grid, schema, cells, rows, reduced=reduced, jobs=jobs,
        total_seconds=total_seconds,
        sweep={
            "portfolio": portfolio.name,
            "expansion": portfolio.expansion,
            "mode": mode,
            "points": len(outcomes),
            "unique": len({outcome.key for outcome in outcomes}),
            "sources": source_counts,
        })
