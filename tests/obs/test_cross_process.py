"""Cross-process span propagation through the scheduler's worker pool."""

import asyncio
import os

import pytest

from repro.api.scenario import SCHEMA_VERSION
from repro.obs.tracing import configure_tracing, disable_tracing, read_trace
from repro.server.scheduler import PlanScheduler
from repro.server.store import ResultStore

pytestmark = pytest.mark.slow  # spawns a real process pool


@pytest.fixture(autouse=True)
def _clean_tracer():
    disable_tracing()
    yield
    disable_tracing()


def _doc():
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "solver": {"scheme": "temp", "engine": "tcme", "max_candidates": 4},
    }


def test_pool_worker_spans_parent_under_dispatch(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path=str(path))

    async def scenario():
        async with PlanScheduler(store=ResultStore(None), jobs=2) as scheduler:
            await scheduler.submit_doc(_doc())

    asyncio.run(scenario())
    disable_tracing()

    records = read_trace(str(path))
    by_name = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)
    by_id = {record["span_id"]: record for record in records}

    # The scheduler-side chain exists and nests request -> dispatch.
    request = by_name["scheduler.request"][0]
    dispatch = by_name["scheduler.dispatch"][0]
    assert dispatch["parent_id"] == request["span_id"]
    assert dispatch["trace_id"] == request["trace_id"]

    # The queue-wait span parents under the request too.
    wait = by_name["scheduler.queue_wait"][0]
    assert wait["parent_id"] == request["span_id"]

    # Worker spans were recorded in another process, shipped back, and
    # re-emitted under the dispatch span of this process.
    worker = by_name["scheduler.evaluate"][0]
    assert worker["pid"] != os.getpid()
    assert worker["parent_id"] == dispatch["span_id"]
    assert worker["trace_id"] == request["trace_id"]

    # The worker's evaluation chain hangs off its scheduler.evaluate span.
    evaluate = by_name["service.evaluate"][0]
    assert evaluate["pid"] == worker["pid"]
    parent = by_id[evaluate["parent_id"]]
    assert parent["name"] == "scheduler.evaluate"
    assert "evaluate.simulate" in by_name


def test_in_process_worker_spans_parent_under_dispatch(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path=str(path))

    async def scenario():
        async with PlanScheduler(store=ResultStore(None), jobs=1) as scheduler:
            await scheduler.submit_doc(_doc())

    asyncio.run(scenario())
    disable_tracing()

    records = read_trace(str(path))
    by_name = {record["name"]: record for record in records}
    worker = by_name["scheduler.evaluate"]
    assert worker["pid"] == os.getpid()
    assert worker["parent_id"] == by_name["scheduler.dispatch"]["span_id"]
    assert (by_name["service.evaluate"]["parent_id"] == worker["span_id"])
