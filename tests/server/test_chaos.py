"""Tests of the resilience layer, driven by deterministic fault injection.

The acceptance contract of PR 6 lives here: a crashed worker (thread-mode
exception or a genuinely killed pool process) triggers retry and lane
replacement, and a poison scenario that keeps killing its worker ends in a
terminal typed error of its own while every other request comes back
bit-identical to a direct evaluation. Deadlines become structured
504s instead of hung futures, admission control sheds with 503 +
``Retry-After``, the client retries dropped connections with jittered
backoff, and every failure path is countable in ``/metrics``.
"""

import asyncio
import random

import pytest

from repro.api.scenario import SCHEMA_VERSION, Scenario
from repro.api.portfolio import Portfolio, PortfolioAxis
from repro.api.service import PlanService
from repro.server.client import PlanClient, PlanServerError
from repro.server.faults import (
    FaultInjector,
    FaultSpecError,
    InjectedStoreWriteError,
    InjectedWorkerCrash,
    parse_spec,
)
from repro.server.portfolio import sweep_portfolio
from repro.server.resilience import RetryPolicy, classify_exception
from repro.server.scheduler import PlanRequestError, PlanScheduler
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


def _direct(document):
    return PlanService().evaluate(Scenario.from_dict(document)).to_dict()


def _run(coroutine):
    return asyncio.run(coroutine)


#: Fast retry policy so failure-path tests don't sleep for real.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.002,
                         jitter=0.0)


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"multiplier": 0.5},
        {"base_delay": 1.0, "max_delay": 0.5},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_bounds_and_is_seedable(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter=0.5)
        rng = random.Random(1234)
        draws = [policy.delay(2, rng=rng) for _ in range(200)]
        assert all(0.2 * 0.5 <= delay <= 0.2 * 1.5 for delay in draws)
        # Jitter actually spreads the delays (not a constant).
        assert max(draws) - min(draws) > 0.01
        # Seeded rng makes the schedule reproducible.
        rng = random.Random(1234)
        again = [policy.delay(2, rng=rng) for _ in range(200)]
        assert draws == again

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0)

    def test_to_dict_snapshot(self):
        assert RetryPolicy(max_attempts=2).to_dict()["max_attempts"] == 2
        assert set(RetryPolicy().to_dict()) == {
            "max_attempts", "base_delay", "multiplier", "max_delay",
            "jitter"}


class TestSpecParsing:
    def test_counted_rules_default_to_once(self):
        for name in ("worker-crash", "store-write-fail", "flaky-http"):
            (rule,) = parse_spec(name)
            assert rule.count == 1

    def test_once_alias_and_explicit_counts(self):
        (rule,) = parse_spec("worker-crash:once")
        assert rule.count == 1
        (rule,) = parse_spec("worker-crash:3")
        assert rule.count == 3

    def test_poison_and_slow_eval_arguments(self):
        (poison,) = parse_spec("poison:llama2-7b")
        assert poison.match == "llama2-7b"
        assert poison.count is None
        (slow,) = parse_spec("slow-eval:0.25")
        assert slow.seconds == 0.25
        assert slow.count is None
        (slow,) = parse_spec("slow-eval:0.25:2")
        assert slow.count == 2

    def test_comma_separated_rules_compose(self):
        rules = parse_spec("worker-crash:2, slow-eval:0.1, flaky-http")
        assert [rule.name for rule in rules] == [
            "worker-crash", "slow-eval", "flaky-http"]

    @pytest.mark.parametrize("spec", [
        "",
        "   ,  ",
        "segfault-everything",
        "worker-crash:0",
        "worker-crash:two",
        "worker-crash:1:2",
        "poison",
        "poison:",
        "slow-eval",
        "slow-eval:fast",
        "slow-eval:-1",
        "slow-eval:0.1:0",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_spec(spec)

    def test_from_spec_of_nothing_is_none(self):
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("") is None
        assert FaultInjector.from_spec("   ") is None

    def test_counted_rules_share_one_token_budget(self, tmp_path):
        first = FaultInjector("worker-crash:2", state_dir=str(tmp_path))
        second = FaultInjector("worker-crash:2", state_dir=str(tmp_path))
        claims = [first._claim(first.rules[0]),
                  second._claim(second.rules[0]),
                  first._claim(first.rules[0]),
                  second._claim(second.rules[0])]
        assert claims == [True, True, False, False]

    def test_stats_reports_spec_and_firings(self, tmp_path):
        injector = FaultInjector("store-write-fail:1",
                                 state_dir=str(tmp_path))
        with pytest.raises(InjectedStoreWriteError):
            injector.on_store_write()
        injector.on_store_write()  # budget spent: second write passes
        stats = injector.stats()
        assert stats["spec"] == "store-write-fail:1"
        assert stats["rules"] == ["store-write-fail"]
        assert stats["fired"] == {"store-write-fail": 1}


class TestClassification:
    def test_exception_taxonomy(self):
        from concurrent.futures.process import BrokenProcessPool

        def retryable(error):
            return classify_exception(error).retryable

        assert retryable(BrokenProcessPool("worker died"))
        assert retryable(ConnectionResetError("dropped"))
        assert retryable(InjectedWorkerCrash("chaos"))
        assert not retryable(ValueError("bad document"))
        assert not retryable(TypeError("wrong type"))
        assert not retryable(KeyError("missing"))

    def test_broken_pool_classifies_as_worker_crashed(self):
        from concurrent.futures.process import BrokenProcessPool

        failure = classify_exception(BrokenProcessPool("worker died"))
        assert (failure.kind, failure.retryable) == ("worker_crashed", True)

    def test_self_classification_wins_over_type(self):
        # InjectedStoreWriteError is an OSError, but the marker attribute
        # is what classify consults first.
        class TerminalOSError(OSError):
            retryable = False

        assert not classify_exception(
            TerminalOSError("really broken")).retryable
        assert classify_exception(InjectedStoreWriteError("chaos")).retryable


class TestWorkerCrashRecovery:
    def test_crashed_worker_is_retried_and_payload_unaffected(self, tmp_path):
        document = _doc()
        chaos = FaultInjector("worker-crash:1", state_dir=str(tmp_path))

        async def scenario():
            async with PlanScheduler(chaos=chaos,
                                     retry=FAST_RETRY) as scheduler:
                payload = await scheduler.submit_doc(document)
                return payload, dict(scheduler.counters)

        payload, counters = _run(scenario())
        assert payload == _direct(document)
        assert counters["retries"] == 1
        assert counters["evaluations"] == 1
        assert chaos.fired == {"worker-crash": 1}

    def test_poison_scenario_fails_alone(self):
        good_a = _doc(solver={"scheme": "temp", "engine": "tcme",
                              "max_candidates": 2})
        good_b = _doc(solver={"scheme": "temp", "engine": "tcme",
                              "max_candidates": 3})
        # seq_length 768 is the poison marker: its canonical JSON contains
        # "768", which no other document's does.
        poison = _doc(workload={"seq_length": 768})
        poison_key = Scenario.from_dict(poison).cache_key()

        async def scenario():
            async with PlanScheduler(chaos="poison:768",
                                     retry=FAST_RETRY) as scheduler:
                results = await scheduler.submit_batch(
                    [good_a, good_b, poison])
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        assert results[0] == _direct(good_a)
        assert results[1] == _direct(good_b)
        error = results[2]["error"]
        assert error["type"] == "worker_crashed"
        assert error["status"] == 500
        assert error["retryable"] is False
        assert error["cache_key"] == poison_key
        assert counters["errors"] == 1
        assert counters["evaluations"] == 2
        assert counters["retries"] >= 1

    def test_group_failure_payloads_name_every_request(self):
        # Both batch-mates of a failing pair carry their own cache_key, so
        # a batch client can tell which of its scenarios was the poison.
        doc_a = _doc(workload={"seq_length": 768})
        doc_b = _doc(workload={"seq_length": 768, "batch_size": 16})
        keys = {Scenario.from_dict(doc).cache_key()
                for doc in (doc_a, doc_b)}

        async def scenario():
            async with PlanScheduler(chaos="poison:768",
                                     retry=FAST_RETRY) as scheduler:
                return await scheduler.submit_batch([doc_a, doc_b])

        results = _run(scenario())
        assert {payload["error"]["cache_key"]
                for payload in results} == keys
        assert all(payload["error"]["type"] == "worker_crashed"
                   for payload in results)

    def test_lane_is_freed_after_a_failed_request(self):
        # One lane: if the poison's failure kept it, the next request would
        # wait for a free lane forever.
        poison = _doc(workload={"seq_length": 768})
        good = _doc()

        async def scenario():
            scheduler = PlanScheduler(chaos="poison:768",
                                      retry=RetryPolicy(max_attempts=1))
            await scheduler.start()
            failed = await scheduler.submit_doc(poison)
            # Bounded, and close() only after it: draining a request stuck
            # waiting for a lane would hang instead of failing.
            served = await asyncio.wait_for(scheduler.submit_doc(good),
                                            timeout=30)
            await scheduler.close()
            return failed, served, dict(scheduler.counters)

        failed, served, counters = _run(scenario())
        assert failed["error"]["type"] == "worker_crashed"
        assert served == _direct(good)
        assert counters["errors"] == 1
        assert counters["evaluations"] == 1


class TestDeadline:
    def test_expired_deadline_is_a_structured_504(self):
        async def scenario():
            async with PlanScheduler(chaos="slow-eval:0.3",
                                     deadline=0.05) as scheduler:
                with pytest.raises(PlanRequestError) as excinfo:
                    await scheduler.submit_doc(_doc())
                # close() (via the context manager) drains the still-running
                # evaluation — the shielded future is never abandoned.
                return excinfo.value, dict(scheduler.counters)

        error, counters = _run(scenario())
        assert error.kind == "deadline_expired"
        assert error.status == 504
        assert error.payload["error"]["retryable"] is True
        assert counters["deadline_expired"] == 1

    def test_expired_request_still_feeds_the_store(self, tmp_path):
        # The deadline bounds the caller's wait, not the evaluation: the
        # shielded future completes and the store is fed, so a retry of the
        # same scenario is a store hit instead of a second solve.
        document = _doc()
        chaos = FaultInjector("slow-eval:0.2:1",
                              state_dir=str(tmp_path / "chaos"))

        async def scenario():
            store = ResultStore(None)
            async with PlanScheduler(chaos=chaos,
                                     deadline=0.05,
                                     store=store) as scheduler:
                with pytest.raises(PlanRequestError):
                    await scheduler.submit_doc(document)
                await scheduler.drain()
                payload, source = await scheduler.submit_doc_traced(document)
                return payload, source, store.stats()

        payload, source, store_stats = _run(scenario())
        assert source == "store"
        assert payload == _direct(document)
        assert store_stats["writes"] == 1

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline"):
            PlanScheduler(deadline=0)


class TestStoreWriteFailure:
    def test_failed_store_write_still_serves_the_result(self, tmp_path):
        document = _doc()
        chaos = FaultInjector("store-write-fail:1",
                              state_dir=str(tmp_path / "chaos"))

        async def scenario():
            store = ResultStore(None)
            async with PlanScheduler(chaos=chaos,
                                     store=store) as scheduler:
                first = await scheduler.submit_doc(document)
                # The budget is spent: the re-evaluation's write succeeds.
                second, source = await scheduler.submit_doc_traced(document)
                return (first, second, source, dict(scheduler.counters),
                        store.stats())

        first, second, source, counters, store_stats = _run(scenario())
        assert first == _direct(document)
        assert second == first
        assert source == "evaluated"  # nothing was stored the first time
        assert counters["store_write_failures"] == 1
        assert store_stats["writes"] == 1

    def test_sqlite_store_under_write_fault(self, tmp_path):
        # The same containment contract holds for a store file: the
        # injected failure costs one write, nothing else, and the next
        # evaluation persists (visible across a reopen).
        document = _doc()
        path = str(tmp_path / "plans.sqlite")
        chaos = FaultInjector("store-write-fail:1",
                              state_dir=str(tmp_path / "chaos"))

        async def scenario():
            with ResultStore(path) as store:
                async with PlanScheduler(chaos=chaos,
                                         store=store) as scheduler:
                    first = await scheduler.submit_doc(document)
                    second, source = await scheduler.submit_doc_traced(
                        document)
                    return (first, second, source,
                            dict(scheduler.counters), store.stats())

        first, second, source, counters, store_stats = _run(scenario())
        assert first == _direct(document)
        assert second == first
        assert source == "evaluated"
        assert counters["store_write_failures"] == 1
        assert store_stats["writes"] == 1
        with ResultStore(path) as reopened:
            assert len(reopened) == 1
            key = Scenario.from_dict(document).cache_key()
            assert reopened.get(key) == first

    def test_real_store_write_failure_is_contained(self, tmp_path):
        # No injected fault: the store file itself refuses the write. The
        # request is still served and the failure is counted, not raised.
        document = _doc()

        async def scenario():
            with ResultStore(str(tmp_path / "plans.sqlite")) as store:
                store._conn.execute("PRAGMA query_only=ON")
                async with PlanScheduler(store=store) as scheduler:
                    payload = await scheduler.submit_doc(document)
                    return (payload, dict(scheduler.counters),
                            store.stats())

        payload, counters, store_stats = _run(scenario())
        assert payload == _direct(document)
        assert counters["store_write_failures"] == 1
        assert (store_stats["writes"], store_stats["entries"]) == (0, 0)


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_retry_after(self):
        slow = _doc()
        other = _doc(workload={"batch_size": 16})

        async def scenario():
            async with PlanScheduler(chaos="slow-eval:0.2",
                                     max_queue=1) as scheduler:
                first = asyncio.ensure_future(scheduler.submit_doc(slow))
                await asyncio.sleep(0)  # let it register as in-flight
                with pytest.raises(PlanRequestError) as excinfo:
                    await scheduler.submit_doc(other)
                shed_error = excinfo.value
                # A duplicate of the in-flight request is never shed: it
                # joins the existing evaluation instead of queueing a new
                # one.
                duplicate = await scheduler.submit_doc(slow)
                await first
                return (shed_error, duplicate, first.result(),
                        dict(scheduler.counters))

        shed_error, duplicate, first, counters = _run(scenario())
        assert shed_error.kind == "overloaded"
        assert shed_error.status == 503
        assert shed_error.retry_after == 1.0
        assert shed_error.payload["error"]["retryable"] is True
        assert duplicate == first
        assert counters["shed"] == 1
        assert counters["deduped"] == 1

    def test_max_queue_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue"):
            PlanScheduler(max_queue=0)

    def test_chaos_spec_string_arms_an_injector(self):
        scheduler = PlanScheduler(chaos="poison:llama")
        assert isinstance(scheduler.chaos, FaultInjector)
        with pytest.raises(FaultSpecError):
            PlanScheduler(chaos="not-a-fault")


class TestSweepBackpressure:
    def _portfolio(self, candidates=(2, 3, 4)):
        base = Scenario.from_dict(_doc())
        return Portfolio(
            name="backpressure",
            base=base,
            axes=(PortfolioAxis(name="max_candidates",
                                path="solver.max_candidates",
                                values=tuple(candidates)),),
        )

    def test_sweep_defaults_its_concurrency_to_max_queue(self):
        portfolio = self._portfolio()

        async def scenario():
            async with PlanScheduler(max_queue=1) as scheduler:
                outcomes = await sweep_portfolio(scheduler, portfolio)
                return outcomes, dict(scheduler.counters)

        outcomes, counters = _run(scenario())
        # The sweep throttled itself below the admission bound: no sheds.
        assert counters["shed"] == 0
        assert all("error" not in outcome.payload for outcome in outcomes)

    def test_shed_sweep_points_back_off_and_complete(self):
        portfolio = self._portfolio()
        patient = RetryPolicy(max_attempts=20, base_delay=0.01,
                              max_delay=0.05, jitter=0.0)

        async def scenario():
            async with PlanScheduler(max_queue=1) as scheduler:
                outcomes = await sweep_portfolio(
                    scheduler, portfolio, retry=patient,
                    max_concurrency=3)  # deliberately floods max_queue=1
                return outcomes, dict(scheduler.counters)

        outcomes, counters = _run(scenario())
        assert counters["shed"] >= 1
        assert all("error" not in outcome.payload for outcome in outcomes)


@pytest.mark.slow  # live servers and real process pools
class TestLiveChaos:
    def test_client_retries_dropped_connections(self, tmp_path, make_server):
        document = _doc()
        chaos = FaultInjector("flaky-http:2",
                              state_dir=str(tmp_path / "chaos"))
        harness = make_server(chaos=chaos)
        # No wait_ready(): the harness already gated on the bound port, and
        # a health poll must not consume the flaky-http budget.
        client = PlanClient(
            port=harness.port, timeout=30.0,
            retry=RetryPolicy(max_attempts=4, base_delay=0.01,
                              max_delay=0.05),
            rng=random.Random(42))
        payload = client.plan(document)
        assert payload == _direct(document)
        assert client.retries_performed == 2
        assert client.last_attempts == 3

    def test_deadline_over_http_is_a_504_and_counted(self, tmp_path,
                                                     make_server):
        chaos = FaultInjector("slow-eval:0.5:1",
                              state_dir=str(tmp_path / "chaos"))
        harness = make_server(store_path=tmp_path / "store.sqlite",
                              chaos=chaos, deadline=0.05)
        client = PlanClient(port=harness.port, timeout=30.0)
        with pytest.raises(PlanServerError) as excinfo:
            client.plan(_doc())
        harness.drain()  # the shielded evaluation settles before stop
        metrics = client.metrics()
        assert excinfo.value.status == 504
        assert excinfo.value.payload["error"]["type"] == "deadline_expired"
        # Every PR 6 counter is visible in one /metrics read.
        scheduler = metrics["scheduler"]
        assert scheduler["deadline_expired"] == 1
        for counter in ("retries", "shed", "pool_rebuilds",
                        "store_write_failures"):
            assert counter in scheduler
        # The expired request's evaluation still fed the store.
        assert metrics["store"]["writes"] == 1
        assert metrics["chaos"]["enabled"] is True

    def test_pool_worker_crash_rebuilds_and_recovers(self, tmp_path):
        documents = [
            _doc(solver={"scheme": "temp", "engine": "tcme",
                         "max_candidates": candidates})
            for candidates in (2, 3, 4)]
        chaos = FaultInjector("worker-crash:1",
                              state_dir=str(tmp_path / "chaos"))

        async def scenario():
            async with PlanScheduler(
                    jobs=2, chaos=chaos,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                      max_delay=0.05)) as scheduler:
                results = await scheduler.submit_batch(documents)
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        # The killed worker (a real os._exit, a real BrokenProcessPool)
        # cost nothing observable: every payload is bit-identical to a
        # direct evaluation.
        for document, payload in zip(documents, results):
            assert payload == _direct(document)
        assert counters["pool_rebuilds"] >= 1
        assert counters["retries"] >= 1
        assert counters["errors"] == 0

    def test_pool_poison_is_isolated_terminal_error(self, tmp_path):
        good_docs = [
            _doc(solver={"scheme": "temp", "engine": "tcme",
                         "max_candidates": candidates})
            for candidates in (2, 3)]
        poison = _doc(workload={"seq_length": 768})
        poison_key = Scenario.from_dict(poison).cache_key()
        chaos = FaultInjector("poison:768")

        async def scenario():
            # max_attempts=1: the poison gets its terminal error after one
            # lane replacement instead of one per doomed retry.
            async with PlanScheduler(
                    jobs=2, chaos=chaos,
                    retry=RetryPolicy(max_attempts=1)) as scheduler:
                results = await scheduler.submit_batch(
                    good_docs + [poison])
                return results, dict(scheduler.counters)

        results, counters = _run(scenario())
        for document, payload in zip(good_docs, results):
            assert payload == _direct(document)
        error = results[2]["error"]
        assert error["type"] == "worker_crashed"
        assert error["retryable"] is False
        assert error["cache_key"] == poison_key
        assert counters["errors"] == 1
        assert counters["pool_rebuilds"] >= 1

    def test_crash_is_charged_only_to_the_request_that_caused_it(self):
        # The innocent request has other hardware and shares the pool with
        # the poison: the poison's crashes must not fail it.
        poison = _doc(workload={"seq_length": 768})
        innocent = _doc(hardware={"rows": 2, "cols": 4})
        poison_key = Scenario.from_dict(poison).cache_key()

        async def scenario():
            async with PlanScheduler(jobs=2,
                                     chaos="poison:768") as scheduler:
                return await scheduler.submit_batch([poison, innocent])

        poisoned, served = _run(scenario())
        assert served == _direct(innocent)
        assert poisoned["error"]["type"] == "worker_crashed"
        assert poisoned["error"]["cache_key"] == poison_key

    def test_replaced_lane_serves_later_requests(self):
        # Free lanes are handed out first-in first-out, so with two lanes
        # the second request after the poison runs on the lane that
        # replaced the one the poison broke.
        poison = _doc(workload={"seq_length": 768})
        later = [_doc(solver={"scheme": "temp", "engine": "tcme",
                              "max_candidates": candidates})
                 for candidates in (2, 3)]

        async def scenario():
            async with PlanScheduler(jobs=2, chaos="poison:768",
                                     retry=RetryPolicy(max_attempts=1)
                                     ) as scheduler:
                failed = await scheduler.submit_doc(poison)
                served = [await scheduler.submit_doc(document)
                          for document in later]
                return failed, served, dict(scheduler.counters)

        failed, served, counters = _run(scenario())
        assert failed["error"]["type"] == "worker_crashed"
        assert served == [_direct(document) for document in later]
        assert counters["pool_rebuilds"] == 1
        assert counters["errors"] == 1
        assert counters["evaluations"] == 2
