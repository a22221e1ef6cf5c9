"""The async micro-batching scheduler of the plan server.

:class:`PlanScheduler` is the layer between a front end (the HTTP server,
the CLI batch path) and the evaluation workers. One request travels::

    submit(scenario)
      -> cache_key()                 # canonical identity of the request
      -> ResultStore.get(key)        # served across restarts without solving
      -> in-flight dedup map         # identical concurrent requests share
                                     # one evaluation (one future, N awaiters)
      -> admission control           # beyond max_queue unique in-flight
                                     # requests, new work is shed with a
                                     # structured 503 + Retry-After
      -> micro-batch queue           # requests arriving within batch_window
                                     # are grouped before dispatch
      -> hardware grouping           # same HardwareSpec -> one worker task,
                                     # so the group shares the worker's
                                     # resolved wafer and CostTables
      -> worker pool                 # jobs=1: one in-process PlanService
                                     # (single worker thread); jobs>1: a
                                     # persistent ProcessPoolExecutor, one
                                     # PlanService per worker — the PR 2
                                     # orchestrator's shared-PlanCache
                                     # pattern, kept warm across requests

Evaluation is deterministic and the plan cache purely memoises, so a served
payload is bit-identical to ``PlanService().evaluate(scenario).to_dict()``
no matter which path produced it (pinned in ``tests/server/``).

The scheduler is self-healing: a crashed pool worker (a genuine
``BrokenProcessPool``) triggers a pool rebuild and a re-dispatch of the
failed group under the shared :class:`~repro.server.resilience.RetryPolicy`;
a group that keeps failing is *bisected* so one poison scenario ends up
alone, gets a terminal typed error (kind ``worker_crashed``, its
``cache_key`` inlined), and its batch-mates still succeed. A per-request
``deadline`` turns a hung evaluation into a structured ``deadline_expired``
error instead of a hung future. All of it is countable in ``stats()``
(``retries`` / ``shed`` / ``deadline_expired`` / ``pool_rebuilds``) and
drivable deterministically via an armed
:class:`~repro.server.faults.FaultInjector`.

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
import json
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.api.scenario import Scenario, ScenarioError
from repro.api.service import PlanService
from repro.obs.metrics import COUNT_BUCKETS, CounterBundle, MetricsRegistry
from repro.obs.tracing import configure_tracing, get_tracer, span, tracing_enabled
from repro.server.faults import FaultInjector, mark_pool_worker
from repro.server.resilience import RetryPolicy, classify_exception
from repro.server.store import ResultStore

#: Where a served payload came from (the trace of ``submit_traced``).
SOURCES = ("store", "inflight", "evaluated")

#: Group re-dispatch policy: cheap, bounded — a pool rebuild per attempt is
#: already expensive, and a group still failing after this gets bisected.
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


def _evaluate_doc(service: PlanService,
                  doc: Mapping[str, object]) -> Dict[str, object]:
    """One scenario document -> result payload (or structured error)."""
    try:
        scenario = Scenario.from_dict(doc)
        return service.evaluate(scenario).to_dict()
    except Exception as error:
        # Contain any per-document failure here: one bad request must come
        # back as its own structured error, never poison the co-batched
        # requests of its group (which a raising evaluate_group would).
        message = error.args[0] if error.args else error
        return error_payload(str(message), kind=type(error).__name__,
                             status=422,
                             retryable=classify_exception(error).retryable)


def evaluate_group(service: PlanService,
                   docs: List[Dict[str, object]],
                   trace_context: Optional[Dict[str, str]] = None,
                   chaos: Optional[FaultInjector] = None,
                   drain_spans: bool = False) -> Tuple[
                       List[Dict[str, object]], Dict[str, object]]:
    """Evaluate one hardware-compatible group on one service.

    Returns the per-document payloads plus a worker telemetry snapshot
    (pid, plan-cache counters, the service's metrics-registry snapshot,
    and — in pool workers, where ``drain_spans`` is set — the buffered
    trace spans) the scheduler folds into ``stats()`` and its trace sink.
    ``trace_context`` parents the worker's spans under the scheduler's
    dispatch span across the thread/process boundary. The chaos hook
    fires *outside* the per-document containment, so an injected worker
    crash escapes like a real one would.
    """
    tracer = get_tracer()
    payloads = []
    with tracer.span_under(trace_context, "scheduler.evaluate_group",
                           scenarios=len(docs)):
        for doc in docs:
            if chaos is not None:
                chaos.on_worker_evaluate(doc)
            payloads.append(_evaluate_doc(service, doc))
    telemetry = {"pid": os.getpid(),
                 "plan_cache": service.plan_cache.stats(),
                 "metrics": service.registry.snapshot(),
                 "spans": tracer.drain() if drain_spans else []}
    return payloads, telemetry


#: Per-process service of pool workers (the PR 2 orchestrator pattern: one
#: shared PlanCache per worker, warm across every group the worker runs).
_WORKER_SERVICE: Optional[PlanService] = None

#: Per-process chaos injector of pool workers (re-armed from the spec the
#: initializer received; counted rules share token files with the parent).
_WORKER_CHAOS: Optional[FaultInjector] = None


def _init_pool_worker(chaos_spec: Optional[str] = None,
                      chaos_state_dir: Optional[str] = None,
                      trace: bool = False) -> None:
    """Pool initializer: one persistent PlanService (and chaos) per worker.

    ``trace`` arms *buffered* tracing in the worker: spans are collected in
    memory and shipped back inside group telemetry — workers never contend
    on the parent's trace file.
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


def _evaluate_group_in_worker(
        docs: List[Dict[str, object]],
        trace_context: Optional[Dict[str, str]] = None) -> Tuple[
            List[Dict[str, object]], Dict[str, object]]:
    """Top-level (picklable) pool task: evaluate one group."""
    global _WORKER_SERVICE
    if _WORKER_SERVICE is None:
        _WORKER_SERVICE = PlanService()
    return evaluate_group(_WORKER_SERVICE, docs, trace_context,
                          chaos=_WORKER_CHAOS, drain_spans=True)


# Scheduler ----------------------------------------------------------------------


class PlanScheduler:
    """Batched, deduplicated, cached scenario serving over a worker pool.

    With ``jobs=1`` the scheduler evaluates on one in-process
    :class:`PlanService`; with ``jobs > 1`` each pool worker owns its own.

    Args:
        store: optional :class:`ResultStore` consulted before queueing and
            fed after every successful evaluation. The scheduler owns it
            (``close()`` closes it). A failed store write is survived (the
            result is still served) and counted.
        jobs: ``1`` evaluates in-process on a single worker thread;
            ``N > 1`` fans groups out to a persistent process pool.
        batch_window: seconds the batcher waits for more requests after the
            first one of a batch arrives.
        max_batch: requests per micro-batch cap.
        deadline: optional per-request deadline in seconds; an expired
            request gets a structured ``deadline_expired`` error (504)
            instead of a hung future.
        max_queue: optional admission bound on unique in-flight requests;
            beyond it new work is shed with ``overloaded`` (503 +
            ``Retry-After``). Store hits and deduplicated requests are
            never shed — they cost no evaluation.
        retry: group re-dispatch policy after worker failures (defaults to
            :data:`DEFAULT_RETRY`).
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
        batch_window: float = 0.005,
        max_batch: int = 16,
        deadline: Optional[float] = None,
        max_queue: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[Union[str, FaultInjector]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.jobs = jobs
        self.batch_window = float(batch_window)
        self.max_batch = max_batch
        self.deadline = deadline
        self.max_queue = max_queue
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.chaos = (FaultInjector.from_spec(chaos)
                      if isinstance(chaos, str) else chaos)
        self.store = store
        self.service = PlanService() if jobs == 1 else None
        self.counters = CounterBundle(
            requests=0,
            deduped=0,
            evaluations=0,
            errors=0,
            batches=0,
            groups=0,
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
            help="time a request sat in the micro-batch queue")
        self._assembly_hist = self.registry.histogram(
            "scheduler.batch_assembly_seconds",
            help="time spent collecting one micro-batch")
        self._dispatch_hist = self.registry.histogram(
            "scheduler.dispatch_seconds",
            help="worker-pool evaluation time per group (retries included)")
        self._batch_size_hist = self.registry.histogram(
            "scheduler.batch_size", buckets=COUNT_BUCKETS,
            help="requests per dispatched micro-batch")
        self._store_write_hist = self.registry.histogram(
            "scheduler.store_write_seconds",
            help="result-store append latency")
        self._inflight: Dict[str, asyncio.Future] = {}
        self._worker_stats: Dict[int, Dict[str, int]] = {}
        self._worker_metrics: Dict[int, Dict[str, object]] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._dispatch_tasks: set = set()
        self._executor = None
        self._group_fn = None
        self._pool_generation = 0
        self._rebuild_lock: Optional[asyncio.Lock] = None
        self._started = False
        self._closing = False

    # Lifecycle -------------------------------------------------------------------

    def _make_executor(self):
        """A fresh worker pool (also the rebuild path after a crash)."""
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
            max_workers=self.jobs, initializer=_init_pool_worker,
            initargs=initargs)

    async def start(self) -> None:
        """Create the queue, the worker pool, and the batcher task."""
        if self._started:
            return
        self._queue = asyncio.Queue()
        self._executor = self._make_executor()
        self._rebuild_lock = asyncio.Lock()
        if self.jobs == 1:
            self._group_fn = functools.partial(evaluate_group, self.service,
                                               chaos=self.chaos)
        else:
            self._group_fn = _evaluate_group_in_worker
        self._batcher = asyncio.create_task(self._batch_loop())
        self._started = True
        self._closing = False

    async def drain(self) -> None:
        """Wait until every queued and in-flight request has resolved."""
        while (self._queue is not None
               and (not self._queue.empty() or self._dispatch_tasks
                    or self._inflight)):
            tasks = list(self._dispatch_tasks)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:
                # Requests are sitting in the queue or the batcher's open
                # window; give it a window's time to dispatch them.
                await asyncio.sleep(max(self.batch_window, 0.001))

    async def close(self) -> None:
        """Drain, then stop the batcher and the worker pool (idempotent)."""
        if not self._started:
            return
        self._closing = True
        await self.drain()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
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
            self, scenario: Scenario) -> Tuple[Dict[str, object], str]:
        """Serve one scenario and report which path served it.

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
        if not self._started or self._queue is None:
            raise RuntimeError("PlanScheduler.start() was never awaited")
        if self._closing:
            raise PlanRequestError("plan server is shutting down",
                                   kind="unavailable", status=503,
                                   retryable=True, retry_after=1.0)
        start = time.perf_counter()
        self.counters["requests"] += 1
        key = scenario.cache_key()
        with span("scheduler.request", cache_key=key) as request_span:
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    self._record_latency(start)
                    return stored, "store"
            future = self._inflight.get(key)
            if future is not None:
                self.counters["deduped"] += 1
                payload = copy.deepcopy(await self._await_result(future))
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
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            context = None
            if request_span.span_id:
                context = {"trace_id": request_span.trace_id,
                           "span_id": request_span.span_id}
            self._queue.put_nowait(
                (key, scenario, time.perf_counter(), context))
            payload = copy.deepcopy(await self._await_result(future))
            self._record_latency(start)
            return payload, "evaluated"

    async def _await_result(self, future: asyncio.Future) -> Dict[str, object]:
        """Await one shared evaluation, under the per-request deadline.

        shield(): one awaiter being cancelled (or timing out) must not
        cancel the shared evaluation every other awaiter is waiting on —
        the evaluation completes and feeds the store either way.
        """
        if self.deadline is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future),
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

    # Batching and dispatch -------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Collect micro-batches from the queue and dispatch them."""
        while True:
            batch = [await self._queue.get()]
            assembly_start = time.perf_counter()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.batch_window
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            self.counters["batches"] += 1
            assembly = time.perf_counter() - assembly_start
            self._assembly_hist.observe(assembly)
            self._batch_size_hist.observe(len(batch))
            tracer = get_tracer()
            if tracer.enabled:
                tracer.record_span("scheduler.batch", assembly,
                                   context=batch[0][3], size=len(batch))
            # Dispatch concurrently: the batcher goes straight back to
            # collecting while the pool evaluates this batch.
            task = asyncio.create_task(self._dispatch(batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, batch: List[Tuple]) -> None:
        """Group one batch by hardware spec and fan the groups out."""
        now = time.perf_counter()
        tracer = get_tracer()
        for key, _, enqueued, context in batch:
            wait = now - enqueued
            self._queue_wait_hist.observe(wait)
            if tracer.enabled:
                tracer.record_span("scheduler.queue_wait", wait,
                                   context=context, cache_key=key)
        groups: Dict[str, List[Tuple]] = {}
        for item in batch:
            hardware_key = json.dumps(item[1].to_dict()["hardware"],
                                      sort_keys=True)
            groups.setdefault(hardware_key, []).append(item)
        self.counters["groups"] += len(groups)
        await asyncio.gather(*(self._run_group(group)
                               for group in groups.values()))

    async def _rebuild_pool(self, observed_generation: int) -> None:
        """Replace a broken executor (once per generation, lock-guarded).

        Concurrent groups all observing the same broken pool race here;
        only the first rebuilds — the rest see the bumped generation and
        retry on the already-fresh pool.
        """
        async with self._rebuild_lock:
            if self._pool_generation != observed_generation:
                return
            broken = self._executor
            self._executor = self._make_executor()
            self._pool_generation += 1
            self.counters["pool_rebuilds"] += 1
            if broken is not None:
                # wait=False: the pool is already broken; reaping its dead
                # processes must not block the event loop.
                broken.shutdown(wait=False)

    async def _evaluate_with_retry(
            self, group: List[Tuple]) -> List[Dict[str, object]]:
        """Evaluate one group, self-healing around worker failures.

        Retryable failures (a crashed worker, a broken pool) re-dispatch
        the whole group under :attr:`retry`; a group that keeps failing is
        bisected so each half retries independently — the recursion
        terminates with the poison scenario alone in a singleton group,
        which gets a terminal ``worker_crashed`` error payload carrying its
        ``cache_key``, while every other request still evaluates normally.
        """
        docs = [scenario.to_dict() for _, scenario, _, _ in group]
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        attempts = 0
        # The dispatch runs in the batch-loop task, not a request's; parent
        # it under the first grouped request's serialized span context.
        with tracer.span_under(group[0][3], "scheduler.dispatch",
                               scenarios=len(docs)) as dispatch_span:
            context = None
            if dispatch_span.span_id:
                context = {"trace_id": dispatch_span.trace_id,
                           "span_id": dispatch_span.span_id}
            dispatch_start = time.perf_counter()
            while True:
                generation = self._pool_generation
                try:
                    payloads, telemetry = await loop.run_in_executor(
                        self._executor, self._group_fn, docs, context)
                except Exception as error:
                    failure = classify_exception(error)
                    if isinstance(error, BrokenExecutor):
                        await self._rebuild_pool(generation)
                    attempts += 1
                    if (failure.retryable
                            and attempts < self.retry.max_attempts):
                        self.counters["retries"] += 1
                        await asyncio.sleep(self.retry.delay(attempts))
                        continue
                    if failure.retryable and len(group) > 1:
                        # Bisect: isolate the poison scenario so its
                        # batch-mates still succeed.
                        mid = len(group) // 2
                        left = await self._evaluate_with_retry(group[:mid])
                        right = await self._evaluate_with_retry(group[mid:])
                        return left + right
                    retries_note = (f" after {attempts} attempts"
                                    if failure.retryable else "")
                    return [error_payload(
                        f"evaluation worker failed{retries_note}: {error}",
                        kind=("worker_crashed" if failure.retryable
                              else failure.kind),
                        status=500, retryable=False, cache_key=key)
                        for key, _, _, _ in group]
                self._dispatch_hist.observe(
                    time.perf_counter() - dispatch_start)
                if telemetry is not None:
                    self._absorb_telemetry(telemetry, tracer)
                return payloads

    def _absorb_telemetry(self, telemetry: Dict[str, object],
                          tracer) -> None:
        """Fold one worker telemetry document into scheduler-side state.

        Worker counters are cumulative per process, so the *last* snapshot
        per pid is kept (merged at :meth:`stats` time); buffered worker
        spans are re-emitted into this process's trace sink.
        """
        pid = telemetry["pid"]
        self._worker_stats[pid] = telemetry["plan_cache"]
        if telemetry.get("metrics") is not None:
            self._worker_metrics[pid] = telemetry["metrics"]
        if tracer.enabled:
            for record in telemetry.get("spans") or ():
                tracer.emit(record)

    async def _run_group(self, group: List[Tuple]) -> None:
        """Evaluate one hardware-compatible group on one pool worker."""
        payloads = await self._evaluate_with_retry(group)
        for (key, _, _, _), payload in zip(group, payloads):
            if "error" in payload:
                # Every per-scenario error names its request: batch-mates
                # sharing a group-wide failure stay distinguishable.
                payload["error"].setdefault("cache_key", key)
                self.counters["errors"] += 1
            else:
                self.counters["evaluations"] += 1
                self._store_put(key, payload)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(payload)

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
            # on every group result) into one aggregate.
            plan_cache = {"hits": 0, "misses": 0, "entries": 0,
                          "max_entries": 0}
            for snapshot in self._worker_stats.values():
                for counter in plan_cache:
                    plan_cache[counter] += snapshot[counter]
        return {
            "scheduler": {
                **self.counters,
                "jobs": self.jobs,
                "max_batch": self.max_batch,
                "batch_window_seconds": self.batch_window,
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
