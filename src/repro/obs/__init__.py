"""Unified observability: metrics registry, tracing spans, structured logs.

The one instrumentation layer every dispatch path reports through — see
:mod:`repro.obs.metrics`, :mod:`repro.obs.tracing`, :mod:`repro.obs.logs`.
"""

from repro.obs.logs import JsonFormatter, setup_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    CounterBundle,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    flatten_stats,
    prometheus_name,
    render_prometheus,
    set_default_registry,
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
    "Counter",
    "CounterBundle",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricError",
    "MetricsRegistry",
    "Tracer",
    "configure_tracing",
    "default_registry",
    "disable_tracing",
    "flatten_stats",
    "get_tracer",
    "prometheus_name",
    "read_trace",
    "render_prometheus",
    "set_default_registry",
    "setup_logging",
    "span",
    "summarize_trace",
    "to_chrome_trace",
    "tracing_enabled",
]
