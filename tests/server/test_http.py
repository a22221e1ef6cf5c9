"""Tests of the HTTP front end, the client, and the ``repro submit`` CLI.

The module-scoped ``server`` fixture (``tests/server/conftest.py``) runs one
real server on an ephemeral port; tests talk to it with the blocking
:class:`PlanClient` exactly like ``repro submit`` does.
"""

import http.client
import json

import pytest

from repro.api.scenario import SCHEMA_VERSION, Scenario
from repro.api.service import PlanService, validate_result_payload
from repro.obs.metrics import prometheus_name
from repro.runner.cli import main
from repro.server.client import PlanClient, PlanServerError

pytestmark = pytest.mark.slow  # every test drives a live server


def _doc(**overrides):
    """A fast (~20 ms) single-wafer scenario document."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                     "seq_length": 512},
        "solver": {"scheme": "temp", "engine": "tcme", "max_candidates": 4},
    }
    document.update(overrides)
    return document


def _prometheus(port):
    """``GET /metrics?format=prometheus``: the response and its text."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/metrics?format=prometheus")
        response = connection.getresponse()
        return response, response.read().decode("utf-8")
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}
        assert client.wait_ready(timeout=1.0)

    def test_plan_roundtrip_is_bit_identical_to_direct_evaluate(self,
                                                                client):
        document = _doc()
        direct = PlanService().evaluate(
            Scenario.from_dict(document)).to_dict()
        served = client.plan(document)
        assert served == direct
        assert validate_result_payload(served) == []
        assert client.last_source == "evaluated"

    def test_repeat_is_served_from_store_and_counted(self, client):
        document = _doc(solver={"scheme": "temp", "engine": "tcme",
                                "max_candidates": 3})
        first = client.plan(document)
        assert client.last_source == "evaluated"
        second = client.plan(document)
        assert client.last_source == "store"
        assert first == second
        metrics = client.metrics()
        assert metrics["store"]["hits"] >= 1
        assert metrics["scheduler"]["requests"] >= 2
        assert metrics["plan_cache"]["misses"] > 0
        assert metrics["latency"]["count"] >= 2

    def test_batch_endpoint_preserves_order_and_inlines_errors(self,
                                                               client):
        documents = [_doc(), {"schema_version": 99}, _doc()]
        results = client.plan_batch(documents)
        assert len(results) == 3
        assert results[0]["model"] == "gpt3-6.7b"
        assert results[1]["error"]["type"] == "ScenarioError"
        assert results[2] == results[0]

    def test_empty_batch(self, client):
        assert client.plan_batch([]) == []

    def test_scenario_objects_are_accepted(self, client):
        scenario = Scenario.from_dict(_doc())
        assert client.plan(scenario)["model"] == "gpt3-6.7b"
        assert client.plan_batch([scenario])[0]["model"] == "gpt3-6.7b"

    def test_metrics_latency_percentiles_and_timings(self, client):
        client.plan(_doc())
        metrics = client.metrics()
        for key in ("count", "total_seconds", "max_seconds", "mean_seconds",
                    "p50_seconds", "p95_seconds", "p99_seconds"):
            assert key in metrics["latency"]
        timings = metrics["timings"]
        for name in ("scheduler.request_latency_seconds",
                     "scheduler.queue_wait_seconds",
                     "scheduler.dispatch_seconds",
                     "service.evaluate_seconds"):
            assert timings[name]["count"] >= 1
            assert timings[name]["p95"] >= timings[name]["p50"] >= 0

    def test_metrics_sections(self, client):
        # The whole /metrics document: a remote sweep reads
        # ``scheduler.max_queue`` from it, perfbench reads ``timings``.
        metrics = client.metrics()
        assert set(metrics) == {"chaos", "latency", "plan_cache",
                                "scheduler", "store", "timings"}
        assert "max_queue" in metrics["scheduler"]

    def test_metrics_prometheus_format_and_content_type(self, client,
                                                        server):
        client.plan(_doc())
        response, text = _prometheus(server.port)
        assert response.status == 200
        assert response.getheader("Content-Type") == \
            "text/plain; version=0.0.4; charset=utf-8"
        lines = text.splitlines()
        # Flattened JSON gauges keep their bit-compatible values.
        json_metrics = client.metrics()
        requests_line = next(line for line in lines
                             if line.startswith("repro_scheduler_requests "))
        assert (int(requests_line.split()[1])
                <= json_metrics["scheduler"]["requests"])
        # Native histogram exposition with queue/evaluate latency series.
        for name in ("repro_scheduler_request_latency_seconds",
                     "repro_scheduler_queue_wait_seconds",
                     "repro_service_evaluate_seconds"):
            assert f"# TYPE {name} histogram" in lines
            assert any(line.startswith(f'{name}_bucket{{le="')
                       for line in lines)
            assert any(line.startswith(f"{name}_count ") for line in lines)
        # Every sample line is well-formed "name[labels] value".
        for line in lines:
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            float(line.rsplit(" ", 1)[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_registry_metric_reaches_both_outputs(self, make_server,
                                                        jobs):
        # An instrument no output reads cannot come back unnoticed: every
        # metric the merged registry holds, of every kind, is a timings
        # entry of GET /metrics and a series of its Prometheus text.
        harness = make_server(jobs=jobs)
        client = PlanClient(port=harness.port, timeout=60.0)
        client.plan(_doc())
        timings = client.metrics()["timings"]
        _, text = _prometheus(harness.port)
        series = {line.split()[2] for line in text.splitlines()
                  if line.startswith("# TYPE ")}
        snapshot = harness.scheduler.merged_registry().snapshot()
        names = [name for metrics in snapshot.values() for name in metrics]
        assert "service.evaluate_seconds" in names
        for name in names:
            assert name in timings, name
            assert prometheus_name(name) in series, name


class TestErrorHandling:
    def test_malformed_scenario_is_a_structured_400(self, client):
        with pytest.raises(PlanServerError) as excinfo:
            client.plan({"schema_version": 99, "bogus": True})
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert error["type"] == "ScenarioError"
        assert "Traceback" not in error["message"]

    def test_wrong_typed_field_answers_400_not_dropped_connection(self,
                                                                  client):
        with pytest.raises(PlanServerError) as excinfo:
            client.plan(_doc(hardware={"rows": "4"}))
        assert excinfo.value.status == 400
        assert "invalid hardware section" in \
            excinfo.value.payload["error"]["message"]

    def test_array_posted_to_single_plan_is_rejected(self, client):
        status, _, payload = client._request("POST", "/v1/plan", [_doc()])
        assert status == 400
        assert "batch" in payload["error"]["message"]

    def test_invalid_json_body_is_a_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.request("POST", "/v1/plan", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["type"] == "protocol"

    def test_unknown_route_is_a_404(self, client):
        status, _, payload = client._request("GET", "/v2/unknown")
        assert status == 404
        assert payload["error"]["type"] == "not_found"

    def test_wrong_method_is_a_405(self, client):
        status, headers, payload = client._request("GET", "/v1/plan")
        assert status == 405
        assert headers.get("allow") == "POST"
        assert payload["error"]["type"] == "method_not_allowed"

    def test_non_batch_body_on_batch_route_is_a_400(self, client):
        status, _, payload = client._request("POST", "/v1/plan/batch",
                                             {"nope": 1})
        assert status == 400
        assert "array" in payload["error"]["message"]


class TestSubmitCli:
    def test_submit_single_and_repeat_sources(self, server, capsys):
        document = json.dumps(_doc(solver={"scheme": "temp",
                                           "engine": "tcme",
                                           "max_candidates": 5}))
        assert main(["submit", document, "--port", str(server.port),
                     "--validate", "--expect-source", "evaluated"]) == 0
        captured = capsys.readouterr()
        assert "served from: evaluated" in captured.err
        first = json.loads(captured.out)
        assert validate_result_payload(first) == []

        assert main(["submit", document, "--port", str(server.port),
                     "--validate", "--expect-source", "store"]) == 0
        captured = capsys.readouterr()
        assert "served from: store" in captured.err
        assert json.loads(captured.out) == first

    def test_submit_wrong_expected_source_fails(self, server, capsys):
        document = json.dumps(_doc())
        main(["submit", document, "--port", str(server.port)])
        capsys.readouterr()
        assert main(["submit", document, "--port", str(server.port),
                     "--expect-source", "evaluated"]) == 1
        assert "expected the result" in capsys.readouterr().err

    def test_submit_batch_array(self, server, capsys):
        documents = json.dumps([_doc(), _doc()])
        assert main(["submit", documents, "--port", str(server.port),
                     "--validate"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert isinstance(payloads, list) and len(payloads) == 2
        assert payloads[0] == payloads[1]

    def test_submit_malformed_scenario_exits_2(self, server, capsys):
        assert main(["submit", '{"schema_version": 99}',
                     "--port", str(server.port)]) == 2
        assert "plan server returned 400" in capsys.readouterr().err

    def test_submit_invalid_json_exits_2(self, server, capsys):
        assert main(["submit", "{broken", "--port",
                     str(server.port)]) == 2
        assert "invalid scenario JSON" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_2(self, capsys):
        assert main(["submit", json.dumps(_doc()), "--port", "1",
                     "--timeout", "2"]) == 2
        assert "cannot reach plan server" in capsys.readouterr().err

    def test_expect_source_with_batch_is_rejected(self, server, capsys):
        assert main(["submit", json.dumps([_doc()]), "--port",
                     str(server.port), "--expect-source", "store"]) == 2
        assert "only applies to a single scenario" in \
            capsys.readouterr().err
