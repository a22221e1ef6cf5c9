"""The seed benchmark suite (imported by ``registry.ensure_loaded``).

Seven benchmarks spanning the paths the repo cares about going fast:

* ``dls_search`` — the dual-level solver end to end (the paper's own
  search-time figure is the reason this repo tracks perf at all);
* ``fig13_sweep_local`` — the in-process fig13 reduced sweep through a
  private plan scheduler (the ``repro sweep`` path);
* ``cache_key`` — scenario content hashing (the dedup identity every
  server/sweep layer leans on);
* ``scenario_serde`` — scenario document round-trips (the wire format);
* ``server_roundtrip`` — plan requests through the real HTTP server and
  client;
* ``trace_overhead`` — the fig13 sweep on the default disabled
  tracing path, quantifying the instrumentation cost (pinned under 2%);
* ``topology_routing`` — construction plus routing/ring queries across
  every registered fabric family of the topology zoo.

Each callable is deterministic given the registry state; wall-clock noise
is what the warmup + median/p10/p90 harness in :mod:`repro.bench.report`
absorbs.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.api.scenario import SCHEMA_VERSION, Scenario
from repro.bench.registry import register_benchmark

#: Lazily-built shared fixtures (expanded points, baseline timings).
_STATE: Dict[str, object] = {}


def _fig13_portfolio():
    """The fig13 reduced portfolio and its expanded points (built once)."""
    if "fig13" not in _STATE:
        from repro.runner.registry import get_experiment

        portfolio = get_experiment("fig13").portfolio(True)
        _STATE["fig13"] = (portfolio, portfolio.expand())
    return _STATE["fig13"]


def _search_scenario() -> Scenario:
    """The dual-level search problem (mirrors the search-time figure)."""
    return Scenario.from_dict({
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-76b"},
        "hardware": {},
        "solver": {"scheme": "temp", "engine": "tcme",
                   "max_candidates": 10, "ga_generations": 8},
    })


def _fixed_scenario_document() -> Dict[str, object]:
    """A cheap pinned-spec scenario for protocol-level benchmarks."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-6.7b"},
        "hardware": {},
        "solver": {"scheme": "temp", "engine": "tcme",
                   "fixed_spec": {"dp": 4, "tp": 8}},
    }


@register_benchmark(
    name="dls_search",
    title="Dual-level solver search on gpt3-76b",
    description="One PlanService.solve: pruning, DP, genetic refinement, "
                "and finalist simulation (the paper's search-time path).",
    repeat=3,
)
def bench_dls_search() -> Optional[Dict[str, object]]:
    from repro.api.service import PlanService

    outcome = PlanService().solve(_search_scenario())
    return {"evaluations": outcome.evaluations,
            "finalists_simulated": outcome.finalists_simulated}


@register_benchmark(
    name="fig13_sweep_local",
    title="fig13 reduced sweep, in-process",
    description="run_portfolio_local at jobs=1: a private PlanScheduler "
                "(dedup, one worker lane) over one PlanService.",
    repeat=3,
)
def bench_fig13_sweep_local() -> Optional[Dict[str, object]]:
    from repro.server.portfolio import run_portfolio_local

    portfolio, points = _fig13_portfolio()
    outcomes = run_portfolio_local(portfolio, jobs=1, points=points)
    return {"points": len(outcomes),
            "unique": len({outcome.key for outcome in outcomes})}


@register_benchmark(
    name="cache_key",
    title="Scenario cache-key hashing",
    description="Canonical-JSON SHA-256 content hashing of the fig13 "
                "points (the dedup identity of the server, the store, and "
                "the sweep engine).",
    repeat=5,
)
def bench_cache_key() -> Optional[Dict[str, object]]:
    _, points = _fig13_portfolio()
    rounds = 200
    keys: set = set()
    for _ in range(rounds):
        for point in points:
            keys.add(point.scenario.cache_key())
    return {"hashes": rounds * len(points), "unique": len(keys)}


@register_benchmark(
    name="scenario_serde",
    title="Scenario document round-trips",
    description="to_dict -> JSON -> from_dict round-trips of the fig13 "
                "points (the wire format of every server endpoint).",
    repeat=5,
)
def bench_scenario_serde() -> Optional[Dict[str, object]]:
    _, points = _fig13_portfolio()
    rounds = 200
    for _ in range(rounds):
        for point in points:
            document = json.loads(json.dumps(point.scenario.to_dict()))
            restored = Scenario.from_dict(document)
            if restored != point.scenario:
                raise AssertionError("scenario round-trip changed the value")
    return {"round_trips": rounds * len(points)}


@register_benchmark(
    name="server_roundtrip",
    title="Plan request through the HTTP server",
    description="A real PlanServer on an ephemeral port served by the "
                "blocking PlanClient: one evaluated plan plus repeated "
                "store-hit round-trips.",
    repeat=3,
)
def bench_server_roundtrip() -> Optional[Dict[str, object]]:
    import asyncio

    from repro.server.client import PlanClient
    from repro.server.http import PlanServer
    from repro.server.resilience import RetryPolicy
    from repro.server.scheduler import PlanScheduler

    document = _fixed_scenario_document()
    requests = 8
    sources: List[str] = []

    async def _run() -> None:
        async with PlanServer(PlanScheduler(jobs=1), port=0) as server:
            def drive() -> None:
                client = PlanClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01))
                for _ in range(requests):
                    client.plan(document)
                    sources.append(client.last_source or "?")

            await asyncio.to_thread(drive)

    asyncio.run(_run())
    return {"requests": requests,
            "evaluated": sources.count("evaluated"),
            "cached": len(sources) - sources.count("evaluated")}


@register_benchmark(
    name="trace_overhead",
    title="Tracing overhead on the fig13 reduced sweep",
    description="The fig13 sweep with tracing disabled (the timed "
                "path), plus extras quantifying the instrumentation cost: "
                "the per-span no-op price, the span count a traced sweep "
                "emits, and the estimated disabled-path overhead — pinned "
                "under 2% of the sweep's wall time.",
    repeat=3,
)
def bench_trace_overhead() -> Optional[Dict[str, object]]:
    from repro.obs.tracing import (
        configure_tracing,
        disable_tracing,
        get_tracer,
        span,
    )
    from repro.server.portfolio import run_portfolio_local

    portfolio, points = _fig13_portfolio()
    # The timed path is the production default: instrumented, disabled.
    start = time.perf_counter()
    run_portfolio_local(portfolio, jobs=1, points=points)
    sweep_seconds = time.perf_counter() - start

    # Price of one disabled span (a dict lookup + a shared no-op context).
    rounds = 100_000
    start = time.perf_counter()
    for _ in range(rounds):
        with span("bench.noop"):
            pass
    noop_span_seconds = (time.perf_counter() - start) / rounds

    # Span volume of the same sweep when tracing is on (no sink: buffered).
    if "trace_overhead_spans" not in _STATE:
        configure_tracing()
        try:
            run_portfolio_local(portfolio, jobs=1, points=points)
            _STATE["trace_overhead_spans"] = len(get_tracer().drain())
        finally:
            disable_tracing()
    spans_emitted = _STATE["trace_overhead_spans"]

    overhead_pct = (100.0 * spans_emitted * noop_span_seconds
                    / sweep_seconds if sweep_seconds else 0.0)
    if overhead_pct >= 2.0:
        raise AssertionError(
            f"disabled-path tracing overhead {overhead_pct:.3f}% breaches "
            f"the 2% budget ({spans_emitted} spans x "
            f"{noop_span_seconds * 1e9:.0f} ns over {sweep_seconds:.3f}s)")
    return {
        "points": len(points),
        "sweep_seconds": round(sweep_seconds, 6),
        "noop_span_ns": round(noop_span_seconds * 1e9, 1),
        "spans_per_sweep": spans_emitted,
        "disabled_overhead_pct": round(overhead_pct, 4),
    }




@register_benchmark(
    name="topology_routing",
    title="Topology zoo construction and routing",
    description="Builds every registered fabric family on the default "
                "4x8 wafer geometry, then runs the mapping-layer hot "
                "queries on each: canonical routes, hop costs, and "
                "contiguous-ring enumeration for the standard group sizes.",
    repeat=5,
)
def bench_topology_routing() -> Optional[Dict[str, object]]:
    from repro.hardware.topologies import build_topology, topology_names

    rows, cols = 4, 8
    constructions = 0
    routes = 0
    rings = 0
    for name in topology_names():
        for _ in range(10):
            topology = build_topology({"name": name}, rows, cols)
            constructions += 1
        dies = topology.dies()
        for src in dies:
            for dst in dies:
                if src == dst:
                    continue
                path = topology.xy_route(src, dst)
                if len(path) != topology.hop_distance(src, dst):
                    raise AssertionError(
                        f"{name}: route length != hop distance")
                topology.hop_cost(src, dst)
                routes += 1
        for group_size in (2, 4, 8, 16, 32):
            for group in topology.partition_into_groups(group_size):
                topology.contiguous_ring(group)
                rings += 1
    return {"families": len(topology_names()),
            "constructions": constructions,
            "routes": routes,
            "rings": rings}
