"""The async plan scheduler of the plan server.

:class:`PlanScheduler` is the layer between a front end (the HTTP server,
the CLI batch path) and the evaluation workers. One request travels::

    submit(scenario)
      -> cache_key()                 # canonical identity of the request
      -> ResultStore.get(key)        # served across restarts without solving
      -> in-flight dedup map         # identical concurrent requests share
                                     # one evaluation (one task, N awaiters)
      -> admission control           # beyond max_queue unique in-flight
                                     # requests, new work is shed with a
                                     # structured 503 + Retry-After
      -> a free worker lane          # jobs lanes, each running one request
                                     # at a time: jobs=1 is one in-process
                                     # PlanService on a worker thread; jobs>1
                                     # are one-process ProcessPoolExecutors,
                                     # each worker with its own warm
                                     # PlanService

Evaluation is deterministic and the plan cache purely memoises, so a served
payload is bit-identical to ``PlanService().evaluate(scenario).to_dict()``
no matter which path produced it (pinned in ``tests/server/``).

The scheduler is self-healing. A lane runs one request at a time, so a
crashed pool worker (a genuine ``BrokenProcessPool``) is the failure of
the request it was running alone: the lane is replaced and the request
re-dispatched under the shared
:class:`~repro.server.resilience.RetryPolicy`. A request that keeps
crashing its worker (a poison scenario) gets a terminal typed error (kind
``worker_crashed``, its ``cache_key`` inlined) while every other request
evaluates normally. A per-request ``deadline`` turns a hung evaluation
into a structured ``deadline_expired`` error instead of a hung future. All
of it is countable in ``stats()`` (``retries`` / ``shed`` /
``deadline_expired`` / ``pool_rebuilds``) and drivable deterministically
via an armed :class:`~repro.server.faults.FaultInjector`.

Malformed documents raise :class:`PlanRequestError`, whose ``payload`` is a
structured ``{"error": {...}}`` document — front ends turn it into a 400,
never a traceback. Evaluation failures (e.g. no feasible configuration)
come back as the same error-payload shape and are *not* stored, so they
don't poison the cross-restart cache.
"""

from __future__ import annotations

import asyncio
import copy
import functools
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, List, Optional, Tuple, Union

from repro.api.scenario import Scenario, ScenarioError
from repro.api.service import PlanService
from repro.obs.metrics import CounterBundle, MetricsRegistry
from repro.obs.tracing import configure_tracing, get_tracer, span, tracing_enabled
from repro.server.faults import FaultInjector, mark_pool_worker
from repro.server.resilience import RetryPolicy, classify_exception
from repro.server.store import ResultStore

#: Where a served payload came from (the trace of ``submit_traced``).
SOURCES = ("store", "inflight", "evaluated")

#: Re-dispatch policy after a worker failure: cheap, bounded — a lane
#: replacement per attempt is already expensive, and a request still failing
#: after this gets a terminal ``worker_crashed`` error.
DEFAULT_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.25)


def error_payload(message: str, kind: str = "error",
                  status: int = 400,
                  retryable: Optional[bool] = None,
                  cache_key: Optional[str] = None) -> Dict[str, object]:
    """The structured error document every front end speaks.

    ``retryable`` and ``cache_key`` are only present when given: the
    taxonomy flag tells clients whether backing off and retrying can help,
    the key tells batch clients *which* scenario actually failed.
    """
    error: Dict[str, object] = {"type": kind, "message": message,
                                "status": status}
    if retryable is not None:
        error["retryable"] = retryable
    if cache_key is not None:
        error["cache_key"] = cache_key
    return {"error": error}


class PlanRequestError(ValueError):
    """A request that cannot be evaluated (bad document, server closing).

    ``payload`` is the JSON error document to return to the caller;
    ``status`` the HTTP-style status class it maps to; ``retry_after``
    (seconds) is set on load-shed responses and becomes the ``Retry-After``
    header.
    """

    def __init__(self, message: str, kind: str = "ScenarioError",
                 status: int = 400, retryable: Optional[bool] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.status = status
        self.retryable = retryable
        self.retry_after = retry_after

    @property
    def payload(self) -> Dict[str, object]:
        return error_payload(str(self), kind=self.kind, status=self.status,
                             retryable=self.retryable)




# Worker-side evaluation ---------------------------------------------------------


def evaluate_scenario(service: PlanService, scenario: Scenario,
                      trace_context: Optional[Dict[str, str]] = None,
                      chaos: Optional[FaultInjector] = None,
                      drain_spans: bool = False) -> Tuple[
                          Dict[str, object], Dict[str, object]]:
    """Evaluate one scenario on one service.

    Returns the result payload (or its structured error) plus a worker
    telemetry snapshot (pid, plan-cache counters, the service's
    metrics-registry snapshot, and — in pool workers, where ``drain_spans``
    is set — the buffered trace spans) the scheduler folds into ``stats()``
    and its trace sink. ``trace_context`` parents the worker's spans under
    the scheduler's dispatch span across the thread/process boundary. The
    chaos hook fires *outside* the error containment, so an injected worker
    crash escapes like a real one would.
    """
    tracer = get_tracer()
    with tracer.span_under(trace_context, "scheduler.evaluate"):
        if chaos is not None:
            chaos.on_worker_evaluate(scenario)
        try:
            payload = service.evaluate(scenario).to_dict()
        except Exception as error:
            # A failed evaluation is the request's own structured error,
            # not a worker failure to retry.
            message = error.args[0] if error.args else error
            payload = error_payload(
                str(message), kind=type(error).__name__, status=422,
                retryable=classify_exception(error).retryable)
    telemetry = {"pid": os.getpid(),
                 "plan_cache": service.plan_cache.stats(),
                 "metrics": service.registry.snapshot(),
                 "spans": tracer.drain() if drain_spans else []}
    return payload, telemetry


#: Per-process service of pool workers: one shared PlanCache per worker,
#: warm across every request the worker runs.
_WORKER_SERVICE: Optional[PlanService] = None

#: Per-process chaos injector of pool workers (re-armed from the spec the
#: initializer received; counted rules share token files with the parent).
_WORKER_CHAOS: Optional[FaultInjector] = None


def _init_pool_worker(chaos_spec: Optional[str] = None,
                      chaos_state_dir: Optional[str] = None,
                      trace: bool = False) -> None:
    """Pool initializer: one persistent PlanService (and chaos) per worker.

    ``trace`` arms *buffered* tracing in the worker: spans are collected in
    memory and shipped back inside the request's telemetry — workers never
    contend on the parent's trace file.
    """
    global _WORKER_SERVICE, _WORKER_CHAOS
    _WORKER_SERVICE = PlanService()
    _WORKER_CHAOS = None
    if trace:
        configure_tracing(buffered=True)
    if chaos_spec:
        mark_pool_worker()
        _WORKER_CHAOS = FaultInjector.from_spec(chaos_spec,
                                                state_dir=chaos_state_dir)


def _evaluate_in_worker(
        scenario: Scenario,
        trace_context: Optional[Dict[str, str]] = None) -> Tuple[
            Dict[str, object], Dict[str, object]]:
    """Top-level (picklable) pool task: evaluate one scenario."""
    return evaluate_scenario(_WORKER_SERVICE, scenario, trace_context,
                             chaos=_WORKER_CHAOS, drain_spans=True)


# Scheduler ----------------------------------------------------------------------


class PlanScheduler:
    """Deduplicated, cached scenario serving over ``jobs`` worker lanes.

    A lane is an executor with one worker and runs one request at a time:
    with ``jobs=1`` the scheduler's own :class:`PlanService` on a worker
    thread; with ``jobs > 1`` one-process pools, each worker keeping its
    own warm service.

    Args:
        store: optional :class:`ResultStore` consulted before dispatch and
            fed after every successful evaluation. The scheduler owns it
            (``close()`` closes it). A failed store write is survived (the
            result is still served) and counted.
        jobs: number of worker lanes; ``1`` evaluates in-process on a
            single worker thread, ``N > 1`` in ``N`` worker processes.
        deadline: optional per-request deadline in seconds; an expired
            request gets a structured ``deadline_expired`` error (504)
            instead of a hung future.
        max_queue: optional admission bound on unique in-flight requests;
            beyond it new work is shed with ``overloaded`` (503 +
            ``Retry-After``). Store hits and deduplicated requests are
            never shed — they cost no evaluation.
        retry: re-dispatch policy of a request whose worker failed
            (defaults to :data:`DEFAULT_RETRY`).
        chaos: a :class:`~repro.server.faults.FaultInjector` (or its spec
            string) arming deterministic fault injection.
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` the
            scheduler's histograms live in (defaults to a private one, so
            schedulers never share latency distributions by accident).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        deadline: Optional[float] = None,
        max_queue: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[Union[str, FaultInjector]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.jobs = jobs
        self.deadline = deadline
        self.max_queue = max_queue
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.chaos = (FaultInjector.from_spec(chaos)
                      if isinstance(chaos, str) else chaos)
        self.store = store
        self.service = PlanService() if jobs == 1 else None
        self._evaluate_fn = (
            functools.partial(evaluate_scenario, self.service,
                              chaos=self.chaos)
            if jobs == 1 else _evaluate_in_worker)
        self.counters = CounterBundle(
            requests=0,
            deduped=0,
            evaluations=0,
            errors=0,
            retries=0,
            shed=0,
            deadline_expired=0,
            pool_rebuilds=0,
            store_write_failures=0,
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._latency_hist = self.registry.histogram(
            "scheduler.request_latency_seconds",
            help="end-to-end submit latency (store hits included)")
        self._queue_wait_hist = self.registry.histogram(
            "scheduler.queue_wait_seconds",
            help="time a request waited for a free worker lane")
        self._dispatch_hist = self.registry.histogram(
            "scheduler.dispatch_seconds",
            help="worker evaluation time per request (retries included)")
        self._store_write_hist = self.registry.histogram(
            "scheduler.store_write_seconds",
            help="result-store append latency")
        self._inflight: Dict[str, asyncio.Task] = {}
        self._worker_stats: Dict[int, Dict[str, int]] = {}
        self._worker_metrics: Dict[int, Dict[str, object]] = {}
        self._lanes: List[Executor] = []
        self._free_lanes: Optional[asyncio.Queue] = None
        self._started = False
        self._closing = False

    # Lifecycle -------------------------------------------------------------------

    def _make_lane(self) -> Executor:
        """A fresh one-worker executor (also the replacement after a crash)."""
        if self.jobs == 1:
            # One worker thread serialises evaluation: PlanService is not
            # thread-safe and a single in-process service is the point —
            # every request shares its PlanCache and resolved wafers.
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="plan-worker")
        initargs = (
            self.chaos.spec if self.chaos is not None else None,
            self.chaos.state_dir if self.chaos is not None else None,
            tracing_enabled(),
        )
        return ProcessPoolExecutor(
            max_workers=1, initializer=_init_pool_worker, initargs=initargs)

    async def start(self) -> None:
        """Create the worker lanes and the queue of free ones."""
        if self._started:
            return
        self._lanes = [self._make_lane() for _ in range(self.jobs)]
        self._free_lanes = asyncio.Queue()
        for lane in range(self.jobs):
            self._free_lanes.put_nowait(lane)
        self._started = True
        self._closing = False

    async def drain(self) -> None:
        """Wait until every in-flight request has resolved."""
        while self._inflight:
            await asyncio.gather(*self._inflight.values(),
                                 return_exceptions=True)

    async def close(self) -> None:
        """Drain, then stop the worker lanes (idempotent)."""
        if not self._started:
            return
        self._closing = True
        await self.drain()
        for lane in self._lanes:
            lane.shutdown(wait=True)
        self._lanes = []
        if self.store is not None:
            self.store.close()
        self._started = False

    async def __aenter__(self) -> "PlanScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # Submission ------------------------------------------------------------------

    async def submit(self, scenario: Scenario) -> Dict[str, object]:
        """Serve one scenario; see :meth:`submit_traced`."""
        payload, _ = await self.submit_traced(scenario)
        return payload

    async def submit_traced(
            self, scenario: Scenario,
            key: Optional[str] = None) -> Tuple[Dict[str, object], str]:
        """Serve one scenario and report which path served it.

        ``key`` is the scenario's :meth:`~Scenario.cache_key` when the
        caller already hashed it (a portfolio point carries its own);
        otherwise it is computed here.

        Returns:
            ``(payload, source)`` with ``source`` one of :data:`SOURCES`:
            ``"store"`` (cross-restart cache), ``"inflight"`` (deduplicated
            onto an identical concurrent request), or ``"evaluated"``.

        Raises:
            PlanRequestError: when the scheduler is shutting down, the
                admission queue is saturated (503, ``Retry-After``), or the
                per-request deadline expired (504).
            RuntimeError: when the scheduler was never started.
        """
        if not self._started:
            raise RuntimeError("PlanScheduler.start() was never awaited")
        if self._closing:
            raise PlanRequestError("plan server is shutting down",
                                   kind="unavailable", status=503,
                                   retryable=True, retry_after=1.0)
        start = time.perf_counter()
        self.counters["requests"] += 1
        if key is None:
            key = scenario.cache_key()
        with span("scheduler.request", cache_key=key):
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    self._record_latency(start)
                    return stored, "store"
            task = self._inflight.get(key)
            if task is not None:
                self.counters["deduped"] += 1
                payload = copy.deepcopy(await self._await_result(task))
                self._record_latency(start)
                return payload, "inflight"
            # Admission control: only *new* evaluations are shed — store
            # hits and dedup joins above cost nothing and always get
            # through.
            if (self.max_queue is not None
                    and len(self._inflight) >= self.max_queue):
                self.counters["shed"] += 1
                raise PlanRequestError(
                    f"plan server is saturated ({len(self._inflight)} "
                    f"requests in flight, max_queue={self.max_queue}); "
                    f"retry with backoff", kind="overloaded", status=503,
                    retryable=True, retry_after=1.0)
            # The task inherits this request's span context, so its queue
            # wait and dispatch spans parent under the request.
            task = asyncio.create_task(
                self._run(key, scenario, time.perf_counter()))
            self._inflight[key] = task
            payload = copy.deepcopy(await self._await_result(task))
            self._record_latency(start)
            return payload, "evaluated"

    async def _await_result(self, task: asyncio.Task) -> Dict[str, object]:
        """Await one shared evaluation, under the per-request deadline.

        shield(): one awaiter being cancelled (or timing out) must not
        cancel the shared evaluation every other awaiter is waiting on —
        the evaluation completes and feeds the store either way.
        """
        if self.deadline is None:
            return await asyncio.shield(task)
        try:
            return await asyncio.wait_for(asyncio.shield(task),
                                          self.deadline)
        except asyncio.TimeoutError:
            self.counters["deadline_expired"] += 1
            raise PlanRequestError(
                f"request exceeded the per-request deadline of "
                f"{self.deadline}s", kind="deadline_expired", status=504,
                retryable=True) from None

    async def submit_doc(self, doc: object) -> Dict[str, object]:
        """Serve one raw scenario document; see :meth:`submit_doc_traced`."""
        payload, _ = await self.submit_doc_traced(doc)
        return payload

    async def submit_doc_traced(
            self, doc: object) -> Tuple[Dict[str, object], str]:
        """Parse one raw document, then :meth:`submit_traced` it.

        Raises:
            PlanRequestError: on a malformed document (structured 400-style
                ``payload``, never a traceback).
        """
        try:
            scenario = Scenario.from_dict(doc)
        except ScenarioError as error:
            raise PlanRequestError(str(error)) from None
        return await self.submit_traced(scenario)

    async def submit_batch(
            self, docs: List[object]) -> List[Dict[str, object]]:
        """Serve a batch of raw documents concurrently, preserving order.

        Invalid items become inline ``{"error": {...}}`` payloads instead
        of failing the batch; an empty batch is a no-op returning ``[]``.
        """
        if not docs:
            return []

        async def _one(doc: object) -> Dict[str, object]:
            try:
                return await self.submit_doc(doc)
            except PlanRequestError as request_error:
                return request_error.payload

        return list(await asyncio.gather(*(_one(doc) for doc in docs)))

    # Dispatch --------------------------------------------------------------------

    async def _run(self, key: str, scenario: Scenario,
                   submitted: float) -> Dict[str, object]:
        """The in-flight task of ``key``: wait for a free lane, evaluate.

        A successful payload is stored before the task resolves, so a
        request arriving after that is a store hit.
        """
        try:
            lane = await self._free_lanes.get()
            wait = time.perf_counter() - submitted
            self._queue_wait_hist.observe(wait)
            get_tracer().record_span("scheduler.queue_wait", wait,
                                     cache_key=key)
            try:
                payload = await self._dispatch(lane, key, scenario)
            finally:
                self._free_lanes.put_nowait(lane)
            if "error" in payload:
                # Every error names its request, so a batch client can
                # tell which of its scenarios failed.
                payload["error"].setdefault("cache_key", key)
                self.counters["errors"] += 1
            else:
                self.counters["evaluations"] += 1
                self._store_put(key, payload)
            return payload
        finally:
            self._inflight.pop(key, None)

    async def _dispatch(self, lane: int, key: str,
                        scenario: Scenario) -> Dict[str, object]:
        """Evaluate one request on ``lane``, self-healing around its worker.

        The lane runs nothing else, so a broken pool is this request's
        failure alone: the lane is replaced and the request re-dispatched
        under :attr:`retry`. A request that still fails after the last
        attempt gets a terminal ``worker_crashed`` error payload carrying
        its ``cache_key``. The lane gets the frozen (picklable) scenario
        itself.
        """
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        attempts = 0
        with tracer.span("scheduler.dispatch"):
            context = tracer.serialize_context()
            dispatch_start = time.perf_counter()
            while True:
                try:
                    payload, telemetry = await loop.run_in_executor(
                        self._lanes[lane], self._evaluate_fn, scenario,
                        context)
                except Exception as error:
                    failure = classify_exception(error)
                    if isinstance(error, BrokenExecutor):
                        # wait=False: the pool is already broken; reaping
                        # its dead process must not block the event loop.
                        self._lanes[lane].shutdown(wait=False)
                        self._lanes[lane] = self._make_lane()
                        self.counters["pool_rebuilds"] += 1
                    attempts += 1
                    if (failure.retryable
                            and attempts < self.retry.max_attempts):
                        self.counters["retries"] += 1
                        await asyncio.sleep(self.retry.delay(attempts))
                        continue
                    retries_note = (f" after {attempts} attempts"
                                    if failure.retryable else "")
                    return error_payload(
                        f"evaluation worker failed{retries_note}: {error}",
                        kind=("worker_crashed" if failure.retryable
                              else failure.kind),
                        status=500, retryable=False, cache_key=key)
                self._dispatch_hist.observe(
                    time.perf_counter() - dispatch_start)
                self._absorb_telemetry(telemetry, tracer)
                return payload

    def _absorb_telemetry(self, telemetry: Dict[str, object],
                          tracer) -> None:
        """Fold one worker telemetry document into scheduler-side state.

        Worker counters are cumulative per process, so the *last* snapshot
        per pid is kept (merged at :meth:`stats` time); buffered worker
        spans are re-emitted into this process's trace sink.
        """
        pid = telemetry["pid"]
        self._worker_stats[pid] = telemetry["plan_cache"]
        self._worker_metrics[pid] = telemetry["metrics"]
        if tracer.enabled:
            for record in telemetry["spans"]:
                tracer.emit(record)

    def _store_put(self, key: str, payload: Dict[str, object]) -> None:
        """Persist one payload, surviving (and counting) write failures.

        The store is an optimisation, not the source of truth: a failed
        append must not fail the request whose result it was caching.
        """
        if self.store is None:
            return
        start = time.perf_counter()
        try:
            with span("scheduler.store_write", cache_key=key):
                if self.chaos is not None:
                    self.chaos.on_store_write()
                self.store.put(key, payload)
        except OSError:
            self.counters["store_write_failures"] += 1
        finally:
            self._store_write_hist.observe(time.perf_counter() - start)

    # Telemetry -------------------------------------------------------------------

    def _record_latency(self, start: float) -> None:
        self._latency_hist.observe(time.perf_counter() - start)

    def merged_registry(self) -> MetricsRegistry:
        """The scheduler's registry folded with the latest worker snapshots.

        Worker registries are cumulative per process, so only the last
        snapshot per pid contributes; the merge happens into a *fresh*
        registry so repeated calls never double-count.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self.registry.snapshot())
        for snapshot in self._worker_metrics.values():
            merged.merge_snapshot(snapshot)
        return merged

    def stats(self) -> Dict[str, object]:
        """Plain-JSON counter snapshot (the ``GET /metrics`` document)."""
        if self.service is not None:
            plan_cache = self.service.plan_cache.stats()
        else:
            # Pool mode: fold the latest per-worker snapshots (piggybacked
            # on every result) into one aggregate.
            plan_cache = {"hits": 0, "misses": 0, "entries": 0,
                          "max_entries": 0}
            for snapshot in self._worker_stats.values():
                for counter in plan_cache:
                    plan_cache[counter] += snapshot[counter]
        return {
            "scheduler": {
                **self.counters,
                "jobs": self.jobs,
                "deadline_seconds": self.deadline,
                "max_queue": self.max_queue,
                "retry_policy": self.retry.to_dict(),
                "inflight": len(self._inflight),
            },
            "store": ({"enabled": True, **self.store.stats()}
                      if self.store is not None else {"enabled": False}),
            "plan_cache": plan_cache,
            "chaos": ({"enabled": True, **self.chaos.stats()}
                      if self.chaos is not None else {"enabled": False}),
            # The pre-registry scalar keys stay bit-compatible (pinned in
            # tests/server); the percentile keys are the histogram's gain.
            "latency": {
                "count": self._latency_hist.count,
                "total_seconds": self._latency_hist.sum,
                "max_seconds": self._latency_hist.max,
                "mean_seconds": self._latency_hist.mean,
                "p50_seconds": self._latency_hist.percentile(0.50),
                "p95_seconds": self._latency_hist.percentile(0.95),
                "p99_seconds": self._latency_hist.percentile(0.99),
            },
            "timings": self.merged_registry().histogram_summaries(),
        }
