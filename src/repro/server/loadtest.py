"""Synthetic load generation against a live plan server (``repro loadtest``).

The harness replays N plan requests over C concurrent
:class:`~repro.server.client.PlanClient` connections and reports the
latency distribution (p50/p95/p99), the cache-hit rate, and the server's
own shed/retry counters scraped from ``GET /metrics`` — the numbers the
ROADMAP's production-serving SLOs are written in.

The synthetic workload is shaped by one knob, ``dedup_ratio``: the fraction
of requests that repeat an earlier scenario. ``0.0`` makes every request
unique (a cold-store stress of the evaluation and write paths), ``0.95``
models the interactive planning workload the paper's wafer-scale scenario
implies (most requests re-ask a recently planned configuration, so the
store and in-flight dedup should absorb them). Uniqueness is minted by
varying ``solver.seed`` — cache-key-relevant but evaluation-inert for the
pinned-spec scenario used, so the measured spread is serving-path cost, not
solver noise.

Scope: a harness for smoke tests and `repro bench`-adjacent tracking, not a
general traffic model — requests are issued round-robin over the unique
documents, so arrival order is deterministic given (requests, dedup_ratio,
concurrency).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List

from repro.api.scenario import SCHEMA_VERSION

#: Quantiles reported by :func:`run_loadtest` (fractions of 1).
REPORT_QUANTILES = (0.50, 0.95, 0.99)


def _percentile(values: List[float], quantile: float) -> float:
    """Linearly interpolated percentile of ``values`` (must be non-empty)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = quantile * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def synthetic_documents(unique: int) -> List[Dict[str, object]]:
    """``unique`` distinct cheap scenario documents (distinct cache keys).

    All pin the same tiny fixed-spec plan (no search), differing only in
    ``solver.seed`` — a cache-key axis the fixed-spec evaluation ignores —
    so every unique document costs the server the same small amount.
    """
    return [
        {
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {},
            "solver": {"scheme": "temp", "engine": "tcme",
                       "fixed_spec": {"dp": 4, "tp": 8}, "seed": index},
        }
        for index in range(unique)
    ]


def run_loadtest(host: str = "127.0.0.1",
                 port: int = 8099,
                 requests: int = 200,
                 dedup_ratio: float = 0.95,
                 concurrency: int = 8,
                 timeout: float = 30.0) -> Dict[str, object]:
    """Replay ``requests`` synthetic plans against a live server.

    Args:
        host/port: the server to drive (must already be serving).
        requests: total plan requests to issue.
        dedup_ratio: fraction of requests that repeat an earlier scenario
            (``unique = max(1, round(requests * (1 - dedup_ratio)))``).
        concurrency: worker threads, each with its own client connection.
        timeout: per-request client timeout in seconds.

    Returns:
        A plain-JSON report: request/unique/concurrency echo, wall-clock
        ``duration_seconds`` and ``throughput_rps``, ``latency`` quantiles
        in seconds, per-source response counts (``store`` / ``inflight`` /
        ``evaluated``), the derived ``cache_hit_rate``, an ``errors`` list
        (first few messages) plus count, and the server-side ``/metrics``
        counters that matter for SLOs (shed, retries, evaluations, store).

    Raises:
        ValueError: on a nonsensical parameterisation.
    """
    from repro.server.client import PlanClient, PlanServerError
    from repro.server.resilience import RetryPolicy

    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if not 0.0 <= dedup_ratio <= 1.0:
        raise ValueError(
            f"dedup-ratio must be in [0, 1], got {dedup_ratio}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")

    unique = max(1, round(requests * (1.0 - dedup_ratio)))
    documents = synthetic_documents(unique)

    # Shared work queue: request i plans document i % unique, claimed by
    # whichever worker is free — deterministic content, real concurrency.
    next_index = 0
    index_lock = threading.Lock()
    latencies: List[float] = []
    sources: Dict[str, int] = {}
    errors: List[str] = []
    record_lock = threading.Lock()

    def worker() -> None:
        nonlocal next_index
        client = PlanClient(
            host=host, port=port, timeout=timeout,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05))
        while True:
            with index_lock:
                if next_index >= requests:
                    return
                index = next_index
                next_index += 1
            document = documents[index % unique]
            start = time.perf_counter()
            try:
                client.plan(document)
            except (PlanServerError, OSError) as error:
                with record_lock:
                    errors.append(f"request {index}: {error}")
                continue
            elapsed = time.perf_counter() - start
            source = client.last_source or "unknown"
            with record_lock:
                latencies.append(elapsed)
                sources[source] = sources.get(source, 0) + 1

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(min(concurrency, requests))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start

    completed = len(latencies)
    cached = sources.get("store", 0) + sources.get("inflight", 0)
    latency: Dict[str, object] = {"count": completed}
    if completed:
        latency.update({
            f"p{int(quantile * 100)}":
                round(_percentile(latencies, quantile), 6)
            for quantile in REPORT_QUANTILES
        })
        latency["mean"] = round(sum(latencies) / completed, 6)
        latency["max"] = round(max(latencies), 6)

    report: Dict[str, object] = {
        "server": f"{host}:{port}",
        "requests": requests,
        "unique_scenarios": unique,
        "dedup_ratio": dedup_ratio,
        "concurrency": len(threads),
        "duration_seconds": round(duration, 6),
        "throughput_rps": round(completed / duration, 3) if duration else 0.0,
        "completed": completed,
        "latency": latency,
        "sources": dict(sorted(sources.items())),
        "cache_hit_rate": round(cached / requests, 6),
        "error_count": len(errors),
        "errors": errors[:5],
    }

    # Server-side view: the SLO counters /metrics already exposes.
    try:
        client = PlanClient(host=host, port=port, timeout=timeout)
        metrics = client.metrics()
        scheduler = metrics.get("scheduler", {})
        report["server_metrics"] = {
            "requests": scheduler.get("requests"),
            "shed": scheduler.get("shed"),
            "deadline_expired": scheduler.get("deadline_expired"),
            "evaluations": scheduler.get("evaluations"),
            "retries": scheduler.get("retries"),
            "store": metrics.get("store"),
        }
    except (PlanServerError, OSError) as error:
        report["server_metrics"] = {"error": str(error)}
    return report


def render_report(report: Dict[str, object]) -> str:
    """The human-readable summary ``repro loadtest`` prints."""
    latency = report.get("latency", {})
    lines = [
        f"loadtest against {report['server']}: "
        f"{report['completed']}/{report['requests']} requests in "
        f"{report['duration_seconds']:.3f}s "
        f"({report['throughput_rps']:.1f} req/s, "
        f"concurrency {report['concurrency']}, "
        f"{report['unique_scenarios']} unique scenario(s))",
    ]
    if latency.get("count"):
        lines.append(
            "latency: "
            + "  ".join(f"{name}={latency[name] * 1000.0:.2f}ms"
                        for name in ("p50", "p95", "p99", "mean", "max")))
    sources = report.get("sources", {})
    if sources:
        lines.append("sources: " + "  ".join(
            f"{name}={count}" for name, count in sources.items()))
    lines.append(f"cache-hit rate: {report['cache_hit_rate']:.3f}")
    if report.get("error_count"):
        lines.append(f"errors: {report['error_count']} "
                     f"(first: {report['errors'][0]})")
    server_metrics = report.get("server_metrics", {})
    if "error" not in server_metrics:
        store = server_metrics.get("store") or {}
        lines.append(
            f"server: shed={server_metrics.get('shed')}  "
            f"evaluations={server_metrics.get('evaluations')}  "
            f"retries={server_metrics.get('retries')}  "
            f"store_entries={store.get('entries', '-')}")
    else:
        lines.append(f"server metrics unavailable: "
                     f"{server_metrics['error']}")
    return "\n".join(lines)


def write_report(report: Dict[str, object], path: str) -> None:
    """Persist a loadtest report as JSON (the CI smoke asserts on it)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
