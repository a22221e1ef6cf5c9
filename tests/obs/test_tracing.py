"""Tests of the tracing API: nesting, propagation, export, CLI."""

import asyncio
import json

import pytest

from repro.obs.tracing import (
    configure_tracing,
    disable_tracing,
    get_tracer,
    read_trace,
    span,
    summarize_trace,
    to_chrome_trace,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with the global tracer disabled."""
    disable_tracing()
    yield
    disable_tracing()


def _spans(path):
    return {record["name"]: record for record in read_trace(str(path))}


class TestSpans:
    def test_disabled_span_is_noop(self, tmp_path):
        assert not tracing_enabled()
        with span("anything") as handle:
            assert handle.span_id == ""

    def test_nested_spans_share_trace_and_parent_ids(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(path=str(path))
        with span("outer", model="m"):
            with span("inner"):
                pass
        disable_tracing()

        records = _spans(path)
        assert set(records) == {"outer", "inner"}
        outer, inner = records["outer"], records["inner"]
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"model": "m"}
        assert 0.0 <= inner["duration_seconds"] <= outer["duration_seconds"]

    def test_sibling_roots_get_distinct_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(path=str(path))
        with span("first"):
            pass
        with span("second"):
            pass
        disable_tracing()
        records = _spans(path)
        assert records["first"]["trace_id"] != records["second"]["trace_id"]

    def test_parent_collects_stage_rollup(self, tmp_path):
        configure_tracing(path=str(tmp_path / "trace.jsonl"))
        with span("parent") as parent:
            with span("stage.a"):
                pass
            with span("stage.a"):
                pass
            with span("stage.b"):
                # Only *direct* children roll up.
                with span("stage.c"):
                    pass
        assert set(parent.stages) == {"stage.a", "stage.b"}

    def test_span_under_parents_across_a_boundary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(path=str(path))
        with span("dispatch"):
            context = tracer.serialize_context()
        with tracer.span_under(context, "worker.root"):
            with span("worker.child"):
                pass
        # A stale remote context must not leak into later root spans.
        with span("unrelated"):
            pass
        disable_tracing()

        records = _spans(path)
        dispatch = records["dispatch"]
        assert records["worker.root"]["parent_id"] == dispatch["span_id"]
        assert records["worker.root"]["trace_id"] == dispatch["trace_id"]
        assert (records["worker.child"]["parent_id"]
                == records["worker.root"]["span_id"])
        assert records["unrelated"]["parent_id"] is None

    def test_record_span_emits_measured_duration(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(path=str(path))
        with span("request"):
            context = tracer.serialize_context()
        tracer.record_span("queue_wait", 0.25, context=context, key="k")
        disable_tracing()

        records = _spans(path)
        wait = records["queue_wait"]
        assert wait["duration_seconds"] == pytest.approx(0.25)
        assert wait["parent_id"] == records["request"]["span_id"]
        assert wait["attrs"] == {"key": "k"}

    def test_buffered_mode_drains_and_reemits(self, tmp_path):
        tracer = configure_tracing()
        with span("worker.span"):
            pass
        batch = tracer.drain()
        assert [record["name"] for record in batch] == ["worker.span"]
        assert tracer.drain() == []

        path = tmp_path / "trace.jsonl"
        configure_tracing(path=str(path))
        for record in batch:
            get_tracer().emit(record)
        disable_tracing()
        assert "worker.span" in _spans(path)

    def test_spans_nest_across_asyncio_tasks_independently(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(path=str(path))

        async def point(name):
            with span(name):
                await asyncio.sleep(0)
                with span(name + ".child"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(point("a"), point("b"))

        asyncio.run(main())
        disable_tracing()
        records = _spans(path)
        assert records["a.child"]["parent_id"] == records["a"]["span_id"]
        assert records["b.child"]["parent_id"] == records["b"]["span_id"]
        assert records["a"]["trace_id"] != records["b"]["trace_id"]


class TestAnalysis:
    def test_read_trace_skips_bad_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "ok", "duration_seconds": 1.0}\n'
                        "not json\n"
                        '{"no_name": 1}\n')
        records = read_trace(str(path))
        assert [record["name"] for record in records] == ["ok"]

    def test_summarize_trace_aggregates_by_name(self):
        records = [
            {"name": "dp", "duration_seconds": 1.0},
            {"name": "dp", "duration_seconds": 3.0},
            {"name": "ga", "duration_seconds": 0.5},
        ]
        rows = {row["name"]: row for row in summarize_trace(records)}
        assert rows["dp"]["count"] == 2
        assert rows["dp"]["total_seconds"] == pytest.approx(4.0)
        assert rows["dp"]["mean_seconds"] == pytest.approx(2.0)
        assert rows["dp"]["p50_seconds"] == pytest.approx(2.0)
        assert rows["dp"]["max_seconds"] == pytest.approx(3.0)
        # Sorted by total time descending.
        assert [row["name"] for row in summarize_trace(records)] == \
            ["dp", "ga"]

    def test_chrome_trace_events(self):
        records = [{"name": "dp", "start_unix": 2.0,
                    "duration_seconds": 0.5, "pid": 7,
                    "attrs": {"k": "v"}}]
        document = to_chrome_trace(records)
        event = document["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(2.0e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["pid"] == 7
        assert event["args"] == {"k": "v"}


class TestServiceTelemetry:
    def test_evaluate_carries_stage_timings_when_tracing(self, tmp_path):
        from repro.api.scenario import SCHEMA_VERSION, Scenario
        from repro.api.service import PlanService

        scenario = Scenario.from_dict({
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "solver": {"scheme": "temp", "engine": "tcme",
                       "max_candidates": 4},
        })
        service = PlanService()
        untraced = service.evaluate(scenario)
        assert untraced.telemetry is None

        configure_tracing(path=str(tmp_path / "trace.jsonl"))
        traced = service.evaluate(scenario)
        disable_tracing()
        # Telemetry rides outside the payload schema: identical results.
        assert traced.to_dict() == untraced.to_dict()
        assert traced.telemetry["evaluate_seconds"] > 0
        assert "evaluate.simulate" in traced.telemetry["stages"]


class TestObsCli:
    def _write_trace(self, path):
        configure_tracing(path=str(path))
        with span("outer"):
            with span("inner"):
                pass
        disable_tracing()

    def test_summarize_table_and_json(self, tmp_path, capsys):
        from repro.runner.cli import main

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert main(["obs", "summarize", str(path)]) == 0
        table = capsys.readouterr().out
        assert "outer" in table and "inner" in table

        assert main(["obs", "summarize", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} == {"outer", "inner"}

    def test_chrome_export(self, tmp_path, capsys):
        from repro.runner.cli import main

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        out = tmp_path / "chrome.json"
        assert main(["obs", "chrome", str(path), "-o", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert len(document["traceEvents"]) == 2

    def test_missing_or_empty_trace_fails_cleanly(self, tmp_path, capsys):
        from repro.runner.cli import main

        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "summarize", str(empty)]) == 1
        capsys.readouterr()
