"""Tests of the plan scheduler.

The acceptance contract of the plan server lives here: a served payload is
bit-identical to ``PlanService().evaluate(scenario).to_dict()``, duplicate
concurrent requests resolve to one evaluation, repeats are served from the
result store without re-running the solver (asserted via hit counters),
malformed documents become structured errors, and shutdown drains cleanly.
"""

import asyncio

import pytest

from repro.api.scenario import SCHEMA_VERSION, Scenario
from repro.api.service import PlanService
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_tracer
from repro.server.portfolio import PortfolioManager
from repro.server.scheduler import (
    PlanRequestError,
    PlanScheduler,
    error_payload,
)
from repro.server.store import ResultStore


def _doc(**overrides):
    """A fast (~20 ms) single-wafer scenario document."""
    workload = {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                "seq_length": 512}
    workload.update(overrides.pop("workload", {}))
    document = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "solver": {"scheme": "temp", "engine": "tcme", "max_candidates": 4},
    }
    document.update(overrides)
    return document


def _run(coroutine):
    return asyncio.run(coroutine)


class TestServing:
    def test_served_payload_bit_identical_to_direct_evaluate(self):
        document = _doc()
        direct = PlanService().evaluate(
            Scenario.from_dict(document)).to_dict()

        async def scenario():
            async with PlanScheduler() as scheduler:
                return await scheduler.submit_doc(document)

        assert _run(scenario()) == direct

    def test_duplicate_concurrent_requests_evaluate_once(self):
        document = _doc()

        async def scenario():
            async with PlanScheduler() as scheduler:
                results = await asyncio.gather(
                    *(scheduler.submit_doc_traced(document)
                      for _ in range(4)))
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        payloads = [payload for payload, _ in results]
        assert all(payload == payloads[0] for payload in payloads)
        assert counters["evaluations"] == 1
        assert counters["deduped"] == 3
        assert counters["requests"] == 4
        sources = sorted(source for _, source in results)
        assert sources == ["evaluated", "inflight", "inflight", "inflight"]

    def test_repeated_request_served_from_store_without_solving(self):
        document = _doc()

        async def scenario():
            store = ResultStore(None)
            async with PlanScheduler(store=store) as scheduler:
                first, first_source = await scheduler.submit_doc_traced(
                    document)
                second, second_source = await scheduler.submit_doc_traced(
                    document)
                return (first, first_source, second, second_source,
                        dict(scheduler.counters), store.stats())

        first, first_source, second, second_source, counters, store_stats \
            = _run(scenario())
        assert first == second
        assert (first_source, second_source) == ("evaluated", "store")
        assert counters["evaluations"] == 1  # the solver ran exactly once
        assert store_stats["hits"] == 1
        assert store_stats["writes"] == 1

    def test_store_serves_across_scheduler_restarts(self, tmp_path):
        document = _doc()
        path = tmp_path / "store.jsonl"

        async def first_life():
            async with PlanScheduler(store=ResultStore(path)) as scheduler:
                return await scheduler.submit_doc_traced(document)

        async def second_life():
            async with PlanScheduler(store=ResultStore(path)) as scheduler:
                traced = await scheduler.submit_doc_traced(document)
                return traced, dict(scheduler.counters)

        first, first_source = _run(first_life())
        (second, second_source), counters = _run(second_life())
        assert first_source == "evaluated"
        assert second_source == "store"
        assert second == first
        assert counters["evaluations"] == 0

    def test_mixed_hardware_requests_match_direct_evaluate(self):
        default_hw = _doc()
        small_hw = _doc(hardware={"rows": 2, "cols": 4})

        async def scenario():
            async with PlanScheduler() as scheduler:
                return await asyncio.gather(
                    scheduler.submit_doc(default_hw),
                    scheduler.submit_doc(small_hw))

        payloads = _run(scenario())
        assert payloads == [
            PlanService().evaluate(Scenario.from_dict(document)).to_dict()
            for document in (default_hw, small_hw)]
        assert payloads[0] != payloads[1]


class TestErrors:
    def test_malformed_document_raises_structured_error(self):
        async def scenario():
            async with PlanScheduler() as scheduler:
                await scheduler.submit_doc({"schema_version": 99})

        with pytest.raises(PlanRequestError) as excinfo:
            _run(scenario())
        payload = excinfo.value.payload
        assert set(payload) == {"error"}
        assert payload["error"]["type"] == "ScenarioError"
        assert payload["error"]["status"] == 400
        assert "Traceback" not in payload["error"]["message"]

    def test_evaluation_failure_is_error_payload_and_not_stored(self):
        # A fault study without a fixed_spec passes document validation but
        # fails in the evaluation path.
        document = _doc(hardware={"link_fault_rate": 0.1})

        async def scenario():
            store = ResultStore(None)
            async with PlanScheduler(store=store) as scheduler:
                payload = await scheduler.submit_doc(document)
                return payload, dict(scheduler.counters), store.stats()

        payload, counters, store_stats = _run(scenario())
        assert payload["error"]["status"] == 422
        assert counters["errors"] == 1
        assert counters["evaluations"] == 0
        assert store_stats["writes"] == 0

    def test_wrong_typed_field_is_a_structured_error(self):
        # {"rows": "4"} raises TypeError inside HardwareSpec validation;
        # it must surface as a structured 400, not escape as a traceback.
        async def scenario():
            async with PlanScheduler() as scheduler:
                await scheduler.submit_doc(
                    _doc(hardware={"rows": "4"}))

        with pytest.raises(PlanRequestError) as excinfo:
            _run(scenario())
        assert excinfo.value.status == 400
        assert "invalid hardware section" in str(excinfo.value)

    def test_failing_item_does_not_poison_its_group(self):
        # model=["x"] passes document validation but raises TypeError in
        # the evaluation path; the co-batched valid request must still get
        # its own result.
        good = _doc()
        bad = _doc(workload={"model": ["x"], "num_layers": None,
                             "batch_size": None, "seq_length": None})

        async def scenario():
            async with PlanScheduler() as scheduler:
                results = await scheduler.submit_batch([good, bad])
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        assert "error" not in results[0]
        assert results[1]["error"]["status"] == 422
        assert counters["evaluations"] == 1
        assert counters["errors"] == 1

    def test_batch_inlines_item_errors(self):
        async def scenario():
            async with PlanScheduler() as scheduler:
                return await scheduler.submit_batch(
                    [_doc(), {"schema_version": 99}, "not even an object"])

        results = _run(scenario())
        assert len(results) == 3
        assert "error" not in results[0]
        assert results[1]["error"]["type"] == "ScenarioError"
        assert results[2]["error"]["type"] == "ScenarioError"

    def test_empty_batch_is_a_noop(self):
        async def scenario():
            async with PlanScheduler() as scheduler:
                results = await scheduler.submit_batch([])
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        assert results == []
        assert counters["requests"] == 0


class TestLifecycle:
    def test_drain_settles_queued_requests_without_sleeping(self):
        # drain() is the synchronisation point tests (and shutdown) use
        # instead of sleeping: after it resolves, every submitted request
        # has its result and nothing is in flight.
        documents = [_doc(solver={"scheme": "temp", "engine": "tcme",
                                  "max_candidates": candidates})
                     for candidates in (2, 3)]

        async def scenario():
            async with PlanScheduler() as scheduler:
                pending = [
                    asyncio.ensure_future(scheduler.submit_doc(document))
                    for document in documents]
                await asyncio.sleep(0)  # let the submissions hit the queue
                await scheduler.drain()
                assert all(task.done() for task in pending)
                assert not scheduler._inflight
                return [task.result() for task in pending]

        payloads = _run(scenario())
        assert all("error" not in payload for payload in payloads)

    def test_submit_before_start_raises(self):
        async def scenario():
            await PlanScheduler().submit_doc(_doc())

        with pytest.raises(RuntimeError, match="never awaited"):
            _run(scenario())

    def test_close_drains_pending_requests(self):
        documents = [_doc(solver={"scheme": "temp", "engine": "tcme",
                                  "max_candidates": candidates})
                     for candidates in (2, 3, 4)]

        async def scenario():
            scheduler = PlanScheduler()
            await scheduler.start()
            pending = [asyncio.ensure_future(scheduler.submit_doc(document))
                       for document in documents]
            await asyncio.sleep(0)  # let the submissions hit the queue
            await scheduler.close()
            assert all(task.done() for task in pending)
            return [task.result() for task in pending]

        payloads = _run(scenario())
        assert len(payloads) == 3
        assert all("error" not in payload for payload in payloads)

    def test_submit_after_close_raises(self):
        async def scenario():
            scheduler = PlanScheduler()
            await scheduler.start()
            await scheduler.close()
            await scheduler.submit_doc(_doc())

        with pytest.raises(RuntimeError, match="never awaited"):
            _run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            scheduler = PlanScheduler()
            await scheduler.start()
            await scheduler.close()
            await scheduler.close()

        _run(scenario())


@pytest.mark.slow  # spawns a real process pool
class TestProcessPool:
    def test_pool_mode_serves_bit_identical_payloads(self):
        document = _doc()
        direct = PlanService().evaluate(
            Scenario.from_dict(document)).to_dict()

        async def scenario():
            async with PlanScheduler(jobs=2) as scheduler:
                payload = await scheduler.submit_doc(document)
                return payload, scheduler.stats()

        payload, stats = _run(scenario())
        assert payload == direct
        # Worker telemetry made it back across the process boundary.
        assert stats["plan_cache"]["misses"] > 0


class TestLanes:
    def test_request_waits_for_the_busy_lane(self):
        # One lane runs one request at a time: the second distinct request
        # waits at least the first one's injected 0.2 s evaluation delay.
        documents = [_doc(), _doc(workload={"batch_size": 16})]

        async def scenario():
            async with PlanScheduler(chaos="slow-eval:0.2") as scheduler:
                await asyncio.gather(
                    *(scheduler.submit_doc(document)
                      for document in documents))
                return scheduler.stats()["timings"]

        wait = _run(scenario())["scheduler.queue_wait_seconds"]
        assert wait["count"] == 2
        assert wait["max"] >= 0.2


class TestStats:
    def test_stats_document_shape(self):
        async def scenario():
            async with PlanScheduler(store=ResultStore(None)) as scheduler:
                await scheduler.submit_doc(_doc())
                return scheduler.stats()

        stats = _run(scenario())
        assert set(stats) == {"scheduler", "store", "plan_cache", "chaos",
                              "latency", "timings"}
        assert stats["scheduler"]["requests"] == 1
        assert stats["scheduler"]["jobs"] == 1
        for counter in ("retries", "shed", "deadline_expired",
                        "pool_rebuilds", "store_write_failures"):
            assert stats["scheduler"][counter] == 0
        assert stats["store"]["enabled"] is True
        assert stats["chaos"] == {"enabled": False}
        assert stats["plan_cache"]["misses"] > 0
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["mean_seconds"] > 0
        # Histogram-backed percentiles ride along with the legacy keys.
        for key in ("p50_seconds", "p95_seconds", "p99_seconds"):
            assert stats["latency"][key] >= 0
        # The merged-registry digest carries the stage histograms.
        assert "scheduler.request_latency_seconds" in stats["timings"]
        assert stats["timings"]["scheduler.request_latency_seconds"][
            "count"] == 1

    def test_pool_plan_cache_keeps_the_last_snapshot_per_pid(self):
        """Worker counters are cumulative per process: summing every
        snapshot would double-count, so only each pid's last one counts.
        """
        scheduler = PlanScheduler(jobs=2)

        def absorb(pid, hits, misses, entries):
            scheduler._absorb_telemetry(
                {"pid": pid,
                 "plan_cache": {"hits": hits, "misses": misses,
                                "entries": entries, "max_entries": 100},
                 "metrics": MetricsRegistry().snapshot(), "spans": []},
                get_tracer())

        absorb(100, 1, 5, 5)    # superseded by the later pid-100 snapshot
        absorb(200, 2, 3, 3)
        absorb(100, 10, 6, 6)
        assert scheduler.stats()["plan_cache"] == {
            "hits": 12, "misses": 9, "entries": 9, "max_entries": 200}

    def test_pool_plan_cache_without_snapshots_is_all_zero(self):
        assert PlanScheduler(jobs=2).stats()["plan_cache"] == {
            "hits": 0, "misses": 0, "entries": 0, "max_entries": 0}

    def test_store_disabled_marker(self):
        async def scenario():
            async with PlanScheduler() as scheduler:
                return scheduler.stats()

        assert _run(scenario())["store"] == {"enabled": False}


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlanScheduler(**kwargs)

    def test_error_payload_shape(self):
        payload = error_payload("boom", kind="test", status=418)
        assert payload == {"error": {"type": "test", "message": "boom",
                                     "status": 418}}


class TestPortfolioJobHashing:
    def test_each_point_is_hashed_once(self, monkeypatch):
        # N = 4 points, U = 2 unique scenarios: the ``step`` axis only
        # labels rows, so points 0/1 and 2/3 share a key.
        document = {
            "schema_version": SCHEMA_VERSION,
            "name": "hash-count",
            "base": _doc(),
            "expansion": "zip",
            "axes": [
                {"name": "seq", "path": "workload.seq_length",
                 "values": [256, 256, 512, 512]},
                {"name": "step", "values": [1, 2, 3, 4]},
            ],
        }
        hashed = []
        cache_key = Scenario.cache_key

        def counting_cache_key(scenario):
            hashed.append(scenario)
            return cache_key(scenario)

        monkeypatch.setattr(Scenario, "cache_key", counting_cache_key)

        async def scenario():
            async with PlanScheduler() as scheduler:
                manager = PortfolioManager(scheduler)
                job = manager.start_job(document)
                await manager.close()
                return manager.get(job["job"])

        status = _run(scenario())
        assert status["status"] == "done"
        assert (status["points"], status["unique"]) == (4, 2)
        assert status["sources"] == ["evaluated", "duplicate",
                                     "evaluated", "duplicate"]
        # Hashing in the job, the sweep and the scheduler each would make
        # 2N + U = 10; the point's own key leaves one hash per point.
        assert len(hashed) <= 4 + 2
