"""Unified observability: a histogram registry and tracing spans.

The one instrumentation layer every dispatch path reports through — see
:mod:`repro.obs.metrics` (latency histograms, :class:`CounterBundle`
counters, Prometheus text) and :mod:`repro.obs.tracing` (nested spans).
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    CounterBundle,
    Histogram,
    MetricError,
    MetricsRegistry,
    flatten_stats,
    prometheus_name,
    render_prometheus,
)
from repro.obs.tracing import (
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
    read_trace,
    span,
    summarize_trace,
    to_chrome_trace,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "CounterBundle",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "flatten_stats",
    "get_tracer",
    "prometheus_name",
    "read_trace",
    "render_prometheus",
    "span",
    "summarize_trace",
    "to_chrome_trace",
    "tracing_enabled",
]
