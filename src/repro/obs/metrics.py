"""The metrics registry: named latency histograms, and counter bundles.

One :class:`MetricsRegistry` holds every histogram a component records.
The design follows the Prometheus client model, adapted to this repo's two
constraints — zero third-party dependencies, and a scheduler that must
aggregate telemetry coming back from pool workers:

* histograms are *named* (dotted, e.g. ``"scheduler.queue_wait_seconds"``)
  and get-or-created idempotently, so instrumentation sites never
  coordinate;
* they use **fixed upper-bound buckets** with linearly interpolated
  p50/p95/p99 estimation — cheap to record, cheap to merge, and exactly the
  shape Prometheus exposes;
* every registry produces a plain-JSON :meth:`~MetricsRegistry.snapshot`
  that another registry can :meth:`~MetricsRegistry.merge_snapshot`, which
  is how per-worker registries aggregate across the process pool;
* :func:`render_prometheus` turns a stats document plus histogram snapshots
  into the Prometheus text exposition format (``GET
  /metrics?format=prometheus``).

Every histogram reaches both outputs: the scheduler's ``stats()["timings"]``
summaries (``GET /metrics``) and the Prometheus histogram series. Each
component owns a private registry, so schedulers and services never share
latency distributions by accident.

Counts are not registry metrics. :class:`CounterBundle` is the one counter
convention (``PlanCache``, ``ResultStore``, the scheduler): a dict of named
integer counters whose ``snapshot()`` the component's ``stats()`` document
surfaces — and with it ``GET /metrics`` and its Prometheus gauges.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds) for latency metrics:
#: sub-millisecond cache hits through minute-long searches.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


class MetricError(ValueError):
    """Histogram buckets that are not ascending, or that clash with an
    earlier declaration of the same name."""


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimation.

    ``buckets`` are *upper bounds* (ascending); an implicit +Inf bucket
    catches overflow. ``observe`` is O(log buckets); ``percentile`` walks
    the cumulative counts and linearly interpolates inside the landing
    bucket, clamping to the true observed ``max`` so the +Inf bucket never
    fabricates values. Snapshots are mergeable across registries with
    identical bucket bounds.
    """

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be strictly ascending "
                f"upper bounds, got {buckets!r}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (non-finite values are dropped)."""
        if not math.isfinite(value):
            return
        low, high = 0, len(self.bounds)
        while low < high:
            mid = (low + high) // 2
            if value <= self.bounds[mid]:
                high = mid
            else:
                low = mid + 1
        with self._lock:
            self.counts[low] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` (0..1) from the bucket counts.

        Interpolates linearly between a bucket's lower and upper bound by
        the rank's position inside the bucket; the first bucket's lower
        bound is 0 and the overflow bucket reports the observed ``max``.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if self.count == 0:
            return 0.0
        target = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index == len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = ((target - previous) / bucket_count
                            if bucket_count else 1.0)
                estimate = lower + (upper - lower) * max(0.0, fraction)
                return min(estimate, self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        """Plain-JSON digest: count, sum, mean, max, p50/p95/p99."""
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "mean": round(self.mean, 9),
            "max": round(self.max, 9),
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
        }

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
        }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        if list(snapshot["bounds"]) != list(self.bounds):
            raise MetricError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ")
        with self._lock:
            for index, value in enumerate(snapshot["counts"]):
                self.counts[index] += int(value)
            self.count += int(snapshot["count"])
            self.sum += float(snapshot["sum"])
            self.max = max(self.max, float(snapshot["max"]))


class MetricsRegistry:
    """Named histograms with idempotent get-or-create and mergeable
    snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = Histogram(name, help, buckets=buckets)
                    self._metrics[name] = metric
        if tuple(float(bound) for bound in buckets) != metric.bounds:
            raise MetricError(
                f"histogram {name!r} re-declared with different buckets")
        return metric

    def metrics(self) -> List[Histogram]:
        """Every registered histogram, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-JSON state of every metric, keyed by kind then name.

        The wire format of cross-process aggregation: workers ship it back
        with each result and the scheduler feeds it to
        :meth:`merge_snapshot`.
        """
        return {"histograms": self.histogram_snapshots()}

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, digest in snapshot.get("histograms", {}).items():
            self.histogram(
                name, buckets=digest["bounds"]).merge(digest)

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """``{name: summary()}`` for every histogram (the JSON digest)."""
        return {metric.name: metric.summary() for metric in self.metrics()}

    def histogram_snapshots(self) -> Dict[str, Dict[str, object]]:
        """``{name: snapshot()}`` for every histogram (bucket-level detail,
        the shape :func:`render_prometheus` consumes)."""
        return {metric.name: metric.snapshot() for metric in self.metrics()}


# Counter bundles -----------------------------------------------------------------


class CounterBundle(dict):
    """Named integer counters with one shared snapshot() convention.

    A plain ``dict`` subclass, so legacy call sites keep working unchanged
    (``bundle["requests"] += 1``, ``dict(bundle)``), plus attribute access
    (``bundle.hits += 1``) for the components that exposed counters as
    attributes. ``snapshot()`` is the one counter-dict shape ``PlanCache``,
    ``ResultStore``, and the scheduler now share.
    """

    def __init__(self, **initial: int) -> None:
        super().__init__(initial)

    def __getattr__(self, name: str) -> int:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: int) -> None:
        self[name] = value

    def snapshot(self) -> Dict[str, int]:
        """Plain-JSON counter dict (a copy, safe to ship across processes)."""
        return dict(self)


# Prometheus exposition -----------------------------------------------------------


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """A dotted metric name as a valid Prometheus metric name."""
    flat = _NAME_SANITIZER.sub("_", name.strip())
    return f"{prefix}_{flat}" if prefix else flat


def flatten_stats(document: Mapping[str, object],
                  prefix: str = "",
                  skip: Iterable[str] = (),
                  ) -> List[Tuple[str, float]]:
    """Numeric leaves of a nested stats document as ``(path, value)`` pairs.

    Booleans become 0/1, ``None`` and non-numeric leaves are dropped, and
    top-level keys named in ``skip`` are excluded (histograms are exposed
    natively, not re-flattened).
    """
    skipped = set(skip)
    pairs: List[Tuple[str, float]] = []
    for key, value in document.items():
        if not prefix and key in skipped:
            continue
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            pairs.extend(flatten_stats(value, prefix=path))
        elif isinstance(value, bool):
            pairs.append((path, 1.0 if value else 0.0))
        elif isinstance(value, (int, float)) and math.isfinite(value):
            pairs.append((path, float(value)))
    return pairs


def render_prometheus(stats: Mapping[str, object],
                      histograms: Optional[Mapping[str, Mapping]] = None,
                      skip: Iterable[str] = ("timings",),
                      prefix: str = "repro") -> str:
    """Prometheus text exposition of a stats document plus histograms.

    ``stats`` is a nested plain-JSON document (the bit-compatible
    ``GET /metrics`` body); every numeric leaf becomes one gauge sample.
    ``histograms`` maps names to :meth:`Histogram.snapshot` documents and is
    rendered natively (``_bucket``/``_sum``/``_count`` series with
    cumulative ``le`` labels). Serve with :data:`PROMETHEUS_CONTENT_TYPE`.
    """
    lines: List[str] = []
    for path, value in flatten_stats(stats, skip=skip):
        name = prometheus_name(path, prefix=prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    for metric_name in sorted(histograms or {}):
        digest = histograms[metric_name]
        name = prometheus_name(metric_name, prefix=prefix)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(digest["bounds"], digest["counts"]):
            cumulative += int(count)
            lines.append(
                f'{name}_bucket{{le="{_format_value(float(bound))}"}} '
                f"{cumulative}")
        cumulative += int(digest["counts"][len(digest["bounds"])])
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_format_value(float(digest['sum']))}")
        lines.append(f"{name}_count {int(digest['count'])}")
    return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    """A float as Prometheus text (integers without a trailing ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
