"""The serving-layer parity contract: one scenario set, four paths, one truth.

Five evaluation paths now exist (direct ``PlanService.evaluate``, the
scheduler, the HTTP server, the portfolio engine, and the orchestrator's
cell runners — the last pinned separately in ``tests/runner/``). This
module pins the first four to bit-identical payloads over a shared reduced
scenario set covering every dispatch kind the service knows: single-wafer
search, pinned-spec simulation, multi-wafer pipeline, fault injection, and
the GPU comparator. Any drift between serving layers fails here first.
"""

import asyncio
import json

import pytest

from repro.api.portfolio import portfolio_from_scenarios
from repro.api.scenario import Scenario
from repro.api.service import PlanService
from repro.server.portfolio import run_portfolio_local, run_portfolio_remote
from repro.server.scheduler import PlanScheduler

pytestmark = pytest.mark.slow  # evaluates the shared set four times

#: The shared reduced scenario set: one document per dispatch kind, all
#: sized to evaluate in tens of milliseconds.
SCENARIO_SET = {
    "single_wafer": {
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "solver": {"scheme": "temp", "engine": "tcme", "max_candidates": 4},
    },
    "fixed_spec": {
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "solver": {"fixed_spec": {"dp": 4, "tp": 8}},
    },
    "multi_wafer": {
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 4, "batch_size": 8,
                     "seq_length": 512},
        "hardware": {"num_wafers": 2, "num_microbatches": 4},
        "solver": {"scheme": "temp", "engine": "tcme", "max_candidates": 4},
    },
    "fault": {
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "hardware": {"link_fault_rate": 0.05},
        "solver": {"fixed_spec": {"dp": 4, "tp": 8}, "seed": 7},
    },
    "gpu_cluster": {
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "hardware": {"platform": "gpu_cluster"},
        "solver": {"scheme": "megatron1", "engine": "smap",
                   "max_tatp": 1},
    },
}


@pytest.fixture(scope="module")
def scenarios():
    return {kind: Scenario.from_dict(document)
            for kind, document in SCENARIO_SET.items()}


@pytest.fixture(scope="module")
def direct_payloads(scenarios):
    """Ground truth: one fresh PlanService, every scenario evaluated."""
    service = PlanService()
    return {kind: service.evaluate(scenario).to_dict()
            for kind, scenario in scenarios.items()}


def test_direct_payloads_cover_every_result_kind(direct_payloads):
    # The scenario set must keep exercising every dispatch path; a set
    # that silently collapses to one kind would gut the contract below.
    kinds = {payload["kind"] for payload in direct_payloads.values()}
    assert kinds == {"single_wafer", "fixed_spec", "multi_wafer", "fault",
                     "gpu_cluster"}
    assert all("error" not in payload
               for payload in direct_payloads.values())


def test_scheduler_path_matches_direct(scenarios, direct_payloads):
    async def run():
        async with PlanScheduler() as scheduler:
            return {kind: await scheduler.submit(scenario)
                    for kind, scenario in scenarios.items()}

    assert asyncio.run(run()) == direct_payloads


def test_http_path_matches_direct(client, scenarios, direct_payloads):
    served = {kind: client.plan(scenario)
              for kind, scenario in scenarios.items()}
    assert served == direct_payloads


def test_http_batch_path_matches_direct(client, scenarios, direct_payloads):
    kinds = list(scenarios)
    results = client.plan_batch([scenarios[kind] for kind in kinds])
    assert dict(zip(kinds, results)) == direct_payloads


def test_portfolio_path_matches_direct(scenarios, direct_payloads):
    kinds = list(scenarios)
    portfolio = portfolio_from_scenarios(
        "differential", [scenarios[kind] for kind in kinds])
    outcomes = run_portfolio_local(portfolio)
    assert {kind: outcome.payload
            for kind, outcome in zip(kinds, outcomes)} == direct_payloads


def test_portfolio_server_path_matches_direct(server, scenarios,
                                              direct_payloads):
    kinds = list(scenarios)
    portfolio = portfolio_from_scenarios(
        "differential-http", [scenarios[kind] for kind in kinds])
    outcomes = run_portfolio_remote(portfolio, "127.0.0.1", server.port)
    assert {kind: outcome.payload
            for kind, outcome in zip(kinds, outcomes)} == direct_payloads


def test_pool_scheduler_path_matches_direct(scenarios, direct_payloads):
    # jobs=2 crosses a process boundary: payloads must still be identical.
    async def run():
        async with PlanScheduler(jobs=2) as scheduler:
            return {kind: await scheduler.submit(scenario)
                    for kind, scenario in scenarios.items()}

    assert asyncio.run(run()) == direct_payloads


@pytest.mark.parametrize("store_name", ["plans.sqlite"])
def test_store_backends_serve_bit_identical_payloads(
        store_name, tmp_path, scenarios, direct_payloads):
    # Same scenario stream through a store-backed scheduler: the first
    # pass populates, the second is served from the store — and both
    # match the direct evaluation bit for bit.
    from repro.server.store import ResultStore

    path = tmp_path / store_name

    async def run(store):
        async with PlanScheduler(store=store) as scheduler:
            first = {kind: await scheduler.submit(scenario)
                     for kind, scenario in scenarios.items()}
            second = {}
            sources = {}
            for kind, scenario in scenarios.items():
                payload, source = await scheduler.submit_traced(scenario)
                second[kind] = payload
                sources[kind] = source
            return first, second, sources

    with ResultStore(path) as store:
        first, second, sources = asyncio.run(run(store))
    assert first == direct_payloads
    assert second == direct_payloads
    assert set(sources.values()) == {"store"}
    # Across a restart too: a fresh process over the same file serves the
    # identical payloads without re-evaluating.
    with ResultStore(path) as reopened:
        for kind, scenario in scenarios.items():
            assert reopened.get(scenario.cache_key()) \
                == direct_payloads[kind]


def test_memory_and_file_stores_hold_identical_mappings(
        tmp_path, scenarios, direct_payloads):
    # A memory store and a store file fed the same stream agree key for
    # key, in the canonical serialized form of the direct payloads.
    from repro.server.store import ResultStore

    async def run(store):
        async with PlanScheduler(store=store) as scheduler:
            for scenario in scenarios.values():
                await scheduler.submit(scenario)
            return dict(store._conn.execute("SELECT key, payload FROM plans"))

    memory_rows = asyncio.run(run(ResultStore(None)))
    path = tmp_path / "plans.sqlite"
    asyncio.run(run(ResultStore(path)))
    with ResultStore(path) as reopened:
        file_rows = dict(reopened._conn.execute(
            "SELECT key, payload FROM plans"))
    assert memory_rows == file_rows
    assert memory_rows == {
        scenario.cache_key(): json.dumps(direct_payloads[kind],
                                         sort_keys=True, allow_nan=False)
        for kind, scenario in scenarios.items()}
