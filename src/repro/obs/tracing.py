"""Tracing: nested spans with monotonic wall times, across processes.

The API is one function::

    from repro.obs import span

    with span("solver.dp", candidates=len(candidates)):
        ...

When tracing is disabled (the default) ``span`` returns a shared no-op
context manager — the instrumentation sites stay in the hot paths
permanently and cost one dict lookup plus one call. When enabled via
:func:`configure_tracing`, each ``with`` block produces a span record:

``{"name", "trace_id", "span_id", "parent_id", "pid", "start_unix",
"duration_seconds", "attrs"}``

Nesting is tracked with a :mod:`contextvars` stack, so spans nest
correctly through generators and asyncio tasks. With a path (the CLI
``--trace PATH`` mode) records are written through to a JSON-lines file as
spans close; without one they are buffered in memory (pool workers), where
:meth:`Tracer.drain` returns the batch that rides back to the scheduler
inside the request's telemetry — workers never contend on the trace file.

Cross-process parenting: the dispatching side calls
:meth:`Tracer.serialize_context` and ships the small dict to the worker,
which opens its root span with :meth:`Tracer.span_under` so it parents
under the scheduler's dispatch span. The scheduler re-emits drained worker
records with :meth:`Tracer.emit`.

Export/analysis helpers: :func:`read_trace`, :func:`to_chrome_trace`
(``chrome://tracing`` / Perfetto ``trace_event`` format), and
:func:`summarize_trace` (per-name count/total/mean/p50/p95/max table —
the ``repro obs summarize`` backend).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, TextIO


class _SpanHandle:
    """A live span: identity plus the stage-duration rollup for children."""

    __slots__ = ("name", "trace_id", "span_id", "stages")

    def __init__(self, name: str, trace_id: str, span_id: str) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        # Per-child-name duration sums, filled as direct children close.
        # The root span's rollup becomes PlanResult stage timings.
        self.stages: Dict[str, float] = {}


class Tracer:
    """Produces nested span records; one per process (see module docs)."""

    def __init__(self) -> None:
        self._enabled = False
        self._sink: Optional[TextIO] = None
        self._buffer: List[Dict[str, object]] = []
        self._stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
            "repro_span_stack", default=())
        self._lock = threading.Lock()
        self._counter = 0

    # -- configuration ---------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def configure(self, path: Optional[str] = None) -> None:
        """Enable tracing, writing through to ``path`` (buffering without
        one)."""
        self.close()
        self._enabled = True
        if path is not None:
            self._sink = open(path, "a", encoding="utf-8")

    def disable(self) -> None:
        self.close()
        self._enabled = False

    def close(self) -> None:
        """Flush and close the sink file, if any."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- identity --------------------------------------------------------

    def _next_span_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid():x}.{self._counter:x}"

    def current_span(self) -> Optional[_SpanHandle]:
        stack = self._stack.get()
        return stack[-1] if stack else None

    def serialize_context(self) -> Optional[Dict[str, str]]:
        """The current span identity as a small dict for another process."""
        handle = self.current_span()
        if not self._enabled or handle is None:
            return None
        return {"trace_id": handle.trace_id, "span_id": handle.span_id}

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[_SpanHandle]:
        if not self._enabled:
            yield _NOOP_HANDLE
            return
        parent = self.current_span()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = os.urandom(8).hex()
            parent_id = None
        handle = _SpanHandle(name, trace_id, self._next_span_id())
        stack = self._stack.get()
        token = self._stack.set(stack + (handle,))
        start_unix = time.time()
        start = time.perf_counter()
        try:
            yield handle
        finally:
            duration = time.perf_counter() - start
            self._stack.reset(token)
            if parent is not None:
                parent.stages[name] = parent.stages.get(name, 0.0) + duration
            record: Dict[str, object] = {
                "name": name,
                "trace_id": trace_id,
                "span_id": handle.span_id,
                "parent_id": parent_id,
                "pid": os.getpid(),
                "start_unix": round(start_unix, 6),
                "duration_seconds": round(duration, 9),
            }
            if attrs:
                record["attrs"] = attrs
            self.emit(record)

    @contextlib.contextmanager
    def span_under(self, context: Optional[Mapping[str, str]], name: str,
                   **attrs: object) -> Iterator[_SpanHandle]:
        """:meth:`span`, explicitly parented under a serialized context.

        The cross-boundary entry point: a worker (thread or process) opens
        its root span under the scheduler's dispatch span without touching
        process-global parent state, so concurrent threads cannot adopt
        each other's parents.
        """
        if not self._enabled or context is None:
            with self.span(name, **attrs) as handle:
                yield handle
            return
        parent = _SpanHandle("<remote>", context["trace_id"],
                             context["span_id"])
        stack = self._stack.get()
        token = self._stack.set(stack + (parent,))
        try:
            with self.span(name, **attrs) as handle:
                yield handle
        finally:
            self._stack.reset(token)

    def record_span(self, name: str, duration_seconds: float,
                    context: Optional[Mapping[str, str]] = None,
                    **attrs: object) -> None:
        """Emit one already-measured span (e.g. a queue wait).

        ``context`` (a :meth:`serialize_context` dict) names the parent;
        without one the span parents under the current span, if any.
        """
        if not self._enabled:
            return
        if context is None:
            context = self.serialize_context()
        if context is not None:
            trace_id = context["trace_id"]
            parent_id = context["span_id"]
        else:
            trace_id = os.urandom(8).hex()
            parent_id = None
        record: Dict[str, object] = {
            "name": name,
            "trace_id": trace_id,
            "span_id": self._next_span_id(),
            "parent_id": parent_id,
            "pid": os.getpid(),
            "start_unix": round(time.time() - duration_seconds, 6),
            "duration_seconds": round(duration_seconds, 9),
        }
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def emit(self, record: Dict[str, object]) -> None:
        """Record a finished span (also used to re-emit worker spans)."""
        if not self._enabled:
            return
        if self._sink is not None:
            with self._lock:
                self._sink.write(json.dumps(record, sort_keys=True) + "\n")
                self._sink.flush()
        else:
            with self._lock:
                self._buffer.append(record)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear buffered records ([] in write-through mode)."""
        with self._lock:
            records, self._buffer = self._buffer, []
        return records


class _NoopHandle:
    """Shared inert handle yielded by disabled spans."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    stages: Dict[str, float] = {}


_NOOP_HANDLE = _NoopHandle()


class _NoopContext:
    """Reusable zero-allocation context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> _NoopHandle:
        return _NOOP_HANDLE

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_CONTEXT = _NoopContext()

_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str, **attrs: object):
    """Context manager recording one span on the process-global tracer."""
    if not _TRACER.enabled:
        return _NOOP_CONTEXT
    return _TRACER.span(name, **attrs)


def configure_tracing(path: Optional[str] = None) -> Tracer:
    """Enable the global tracer (JSONL sink at ``path``, else buffered)."""
    _TRACER.configure(path=path)
    return _TRACER


def disable_tracing() -> None:
    """Disable the global tracer and close any open sink."""
    _TRACER.disable()


def tracing_enabled() -> bool:
    return _TRACER.enabled


# Trace-file analysis -------------------------------------------------------------


def read_trace(path: str) -> List[Dict[str, object]]:
    """Span records from a JSON-lines trace file (bad lines are skipped)."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "name" in record:
                records.append(record)
    return records


def to_chrome_trace(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Span records as a Chrome ``trace_event`` document.

    Complete ("X") events with microsecond timestamps; load the JSON in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = []
    for record in records:
        events.append({
            "name": record.get("name", "?"),
            "ph": "X",
            "ts": float(record.get("start_unix", 0.0)) * 1e6,
            "dur": float(record.get("duration_seconds", 0.0)) * 1e6,
            "pid": int(record.get("pid", 0)),
            "tid": int(record.get("pid", 0)),
            "args": dict(record.get("attrs") or {}),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize_trace(records: List[Dict[str, object]],
                    ) -> List[Dict[str, object]]:
    """Per-span-name aggregate rows, sorted by total time descending.

    Each row: ``{"name", "count", "total_seconds", "mean_seconds",
    "p50_seconds", "p95_seconds", "max_seconds"}``.
    """
    by_name: Dict[str, List[float]] = {}
    for record in records:
        duration = record.get("duration_seconds")
        if isinstance(duration, (int, float)):
            by_name.setdefault(str(record.get("name", "?")), []).append(
                float(duration))
    rows: List[Dict[str, object]] = []
    for name, durations in by_name.items():
        durations.sort()
        total = sum(durations)
        rows.append({
            "name": name,
            "count": len(durations),
            "total_seconds": round(total, 9),
            "mean_seconds": round(total / len(durations), 9),
            "p50_seconds": round(_sorted_quantile(durations, 0.50), 9),
            "p95_seconds": round(_sorted_quantile(durations, 0.95), 9),
            "max_seconds": round(durations[-1], 9),
        })
    rows.sort(key=lambda row: (-float(row["total_seconds"]), row["name"]))
    return rows


def _sorted_quantile(sorted_values: List[float], quantile: float) -> float:
    """Linear-interpolation quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    position = quantile * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction
