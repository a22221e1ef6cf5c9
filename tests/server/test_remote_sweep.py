"""How ``run_portfolio_remote`` maps each server answer onto a sweep outcome.

A scripted stand-in for the plan server (stdlib ``http.server`` on an
ephemeral port) answers every ``POST /v1/plan`` from a per-test script, so
each branch of the remote sweep is driven deterministically: a served
point takes its source from ``X-Repro-Source``, a failed evaluation keeps
its source, a shed point or a dropped connection backs off under
``SWEEP_RETRY``, and every other failure — an error status, a request
timeout, an answer that is not a plan server's — is a ``"failed"`` outcome
carrying a structured error payload. No scenario is evaluated here; the
live-server end of the contract is in ``test_portfolio_sweep.py``.
"""

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api.portfolio import Portfolio, PortfolioAxis
from repro.api.scenario import Scenario
from repro.runner.cli import main
from repro.server.client import PlanServerError
from repro.server.portfolio import (
    REQUESTS_PER_LANE,
    SWEEP_RETRY,
    run_portfolio_remote,
)

#: Script entry that closes the connection without an answer.
DROP = "drop"

#: Script entry that sends a 200 whose body stops short, then hangs up.
CUT = "cut"

#: Script entry that answers a served 200, one second late.
SLOW = "slow"


def _overloaded():
    return 503, None, {"error": {"type": "overloaded", "status": 503,
                                 "message": "queue full",
                                 "retryable": True}}


class ScriptedServer:
    """A plan-server stand-in: ``/metrics`` reports ``jobs`` and
    ``max_queue`` (or the given ``metrics`` document), and each
    ``POST /v1/plan`` is answered by the next scripted ``(status, source,
    payload)`` (or :data:`DROP`, :data:`CUT` or :data:`SLOW`), then by a
    served 200
    once the script runs out.

    Attributes:
        posted: every posted scenario document, in arrival order.
        peak_in_flight: most ``POST /v1/plan`` requests open at once.
    """

    def __init__(self, script=(), jobs=2, max_queue=4, metrics=None,
                 metrics_status=200, delay=0.0, barrier=None):
        self.script = list(script)
        self.metrics = (metrics if metrics is not None else
                        {"scheduler": {"jobs": jobs, "max_queue": max_queue}})
        self.metrics_status = metrics_status
        self.delay = delay
        self.barrier = barrier
        self.posted = []
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.stub = self
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        args=(0.05,), daemon=True)
        self._thread.start()

    def answer(self, document):
        with self._lock:
            self.posted.append(document)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            entry = self.script.pop(0) if self.script else None
        try:
            if self.barrier is not None:
                try:
                    self.barrier.wait()
                except threading.BrokenBarrierError:
                    return 500, None, {"error": {
                        "type": "test", "status": 500,
                        "message": "requests were not concurrent"}}
            time.sleep(1.0 if entry == SLOW else self.delay)
        finally:
            with self._lock:
                self.in_flight -= 1
        if entry not in (None, SLOW):
            return entry
        candidates = document["solver"]["max_candidates"]
        return 200, "evaluated", {"label": f"mc={candidates}",
                                  "step_time": float(candidates)}

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        stub = self.server.stub
        if self.path == "/metrics" and stub.metrics_status == 200:
            self._send(200, None, stub.metrics)
        else:
            self._send(stub.metrics_status, None, {"error": {
                "type": "internal", "status": stub.metrics_status,
                "message": "metrics unavailable"}})

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        document = json.loads(self.rfile.read(length))
        entry = self.server.stub.answer(document)
        if entry in (DROP, CUT):
            if entry == CUT:
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"step_time": ')
            self.close_connection = True
            return
        self._send(*entry)

    def _send(self, status, source, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if source is not None:
            self.send_header("X-Repro-Source", source)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up


@pytest.fixture
def stub():
    """A factory of scripted servers, all closed after the test."""
    servers = []

    def _make(**kwargs):
        server = ScriptedServer(**kwargs)
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.close()


def _portfolio(candidates=(2,), name="remote"):
    base = Scenario.from_dict({
        "schema_version": 1,
        "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                     "batch_size": 8, "seq_length": 512},
        "solver": {"scheme": "temp", "engine": "tcme",
                   "max_candidates": 4},
    })
    return Portfolio(name=name, base=base, axes=(
        PortfolioAxis(name="max_candidates", path="solver.max_candidates",
                      values=tuple(candidates)),))


def _sweep(server, portfolio=None, **kwargs):
    return run_portfolio_remote(portfolio or _portfolio(), "127.0.0.1",
                                server.port, **kwargs)


@contextlib.contextmanager
def _banner_server():
    """A local TCP service that answers every connection with a non-HTTP
    banner line and hangs up; yields its port."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(0.05)
    stop = threading.Event()

    def _serve():
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except OSError:
                continue
            with connection:
                connection.sendall(b"SSH-2.0-banner\r\n")

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()


def _closed_port():
    """A local port with nothing listening on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestAnswers:
    def test_served_point_takes_its_source_from_the_header(self, stub):
        server = stub(script=[(200, "store", {"step_time": 1.5})])
        [outcome] = _sweep(server)
        assert outcome.source == "store"
        assert outcome.payload == {"step_time": 1.5}

    def test_failed_evaluation_keeps_its_source(self, stub):
        error = {"error": {"type": "ScenarioError", "status": 422,
                           "message": "no feasible plan"}}
        server = stub(script=[(422, "evaluated", error)])
        [outcome] = _sweep(server)
        assert outcome.source == "evaluated"
        assert outcome.payload == error

    def test_shed_point_backs_off_and_is_served(self, stub):
        server = stub(script=[_overloaded(), _overloaded()])
        [outcome] = _sweep(server)
        assert outcome.source == "evaluated"
        assert outcome.payload["label"] == "mc=2"
        assert len(server.posted) == 3

    def test_point_shed_past_the_retry_budget_fails(self, stub):
        server = stub(script=[_overloaded()] * SWEEP_RETRY.max_attempts)
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        assert outcome.payload["error"]["type"] == "overloaded"
        assert len(server.posted) == SWEEP_RETRY.max_attempts

    def test_unavailable_server_is_not_retried(self, stub):
        # A 503 that is not a shed (the server is shutting down) is final.
        payload = {"error": {"type": "unavailable", "status": 503,
                             "message": "scheduler is shutting down"}}
        server = stub(script=[(503, None, payload)])
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        assert outcome.payload == payload
        assert len(server.posted) == 1

    def test_error_status_without_source_fails_with_the_servers_payload(
            self, stub):
        payload = {"error": {"type": "protocol", "status": 400,
                             "message": "invalid JSON body"}}
        server = stub(script=[(400, None, payload)])
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        assert outcome.payload == payload

    @pytest.mark.parametrize("failure", [DROP, CUT])
    def test_dropped_connection_backs_off_and_is_served(self, stub,
                                                        failure):
        server = stub(script=[failure, failure])
        outcomes = _sweep(server, _portfolio((2, 3)))
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated"] * 2
        assert len(server.posted) == 4

    def test_point_dropped_past_the_retry_budget_fails(self, stub):
        server = stub(script=[DROP] * SWEEP_RETRY.max_attempts)
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        error = outcome.payload["error"]
        assert error["type"] == "unreachable"
        assert "did not answer" in error["message"]
        assert error["retryable"] is True
        # The sweep owns backoff: the client does not re-send on its own.
        assert len(server.posted) == SWEEP_RETRY.max_attempts

    @pytest.mark.parametrize("status, source, payload", [
        (422, "evaluated", {"error": "no feasible plan"}),
        (500, None, ["not", "a", "document"]),
        (503, None, {"error": None}),
    ], ids=["error-not-a-dict", "body-not-a-dict", "error-null"])
    def test_malformed_error_answer_fails_the_point(self, stub, status,
                                                    source, payload):
        server = stub(script=[(status, source, payload)])
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        error = outcome.payload["error"]
        assert error["type"] == "protocol"
        assert error["status"] == status
        assert f"answered {status} without an error document" in \
            error["message"]

    def test_answer_without_a_source_fails_the_point(self, stub):
        server = stub(script=[(200, None, {"step_time": 1.0})])
        [outcome] = _sweep(server)
        assert outcome.source == "failed"
        assert outcome.payload["error"]["type"] == "protocol"

    def test_timeout_bounds_each_request_not_the_sweep(self, stub):
        server = stub(max_queue=1, script=[SLOW])
        outcomes = _sweep(server, _portfolio((2, 3)), timeout=0.3)
        assert [outcome.source for outcome in outcomes] == \
            ["failed", "evaluated"]
        error = outcomes[0].payload["error"]
        assert error["type"] == "TimeoutError"
        assert "timed out after 0.3s" in error["message"]


class TestPacing:
    @pytest.mark.parametrize("jobs, max_queue, cap", [
        (2, 1, 1), (2, 2, 2), (1, None, REQUESTS_PER_LANE)],
        ids=["max-queue-1", "max-queue-2", "one-lane-unbounded"])
    def test_requests_in_flight_never_exceed_the_cap(self, stub, jobs,
                                                     max_queue, cap):
        server = stub(jobs=jobs, max_queue=max_queue, delay=0.02)
        outcomes = _sweep(server, _portfolio((2, 3, 4, 5, 6)))
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated"] * 5
        assert 1 <= server.peak_in_flight <= cap

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_requests_in_flight_follow_the_servers_lanes(self, stub, lanes):
        # Two requests per lane, whatever the client's core count: the
        # answers wait for each other, so a sweep that sent fewer at once
        # would break the barrier and fail every point.
        server = stub(jobs=lanes, max_queue=None,
                      barrier=threading.Barrier(
                          REQUESTS_PER_LANE * lanes, timeout=10))
        candidates = tuple(range(2, 2 + REQUESTS_PER_LANE * lanes))
        outcomes = _sweep(server, _portfolio(candidates))
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated"] * len(candidates)


class TestRequests:
    def test_each_unique_scenario_is_posted_once(self, stub):
        server = stub()
        portfolio = Portfolio(
            name="dup", base=_portfolio().base, expansion="zip", axes=(
                PortfolioAxis(name="max_candidates",
                              path="solver.max_candidates",
                              values=(2, 3, 2)),
                PortfolioAxis(name="step", values=(0, 1, 2))))
        outcomes = _sweep(server, portfolio)
        assert [outcome.source for outcome in outcomes] == \
            ["evaluated", "evaluated", "duplicate"]
        expected = [point.scenario.to_dict()
                    for point in portfolio.expand()[:2]]
        assert sorted(server.posted, key=json.dumps) == \
            sorted(expected, key=json.dumps)

    def test_given_points_are_swept_as_given(self, stub):
        server = stub()
        portfolio = _portfolio((2, 3, 4))
        points = portfolio.expand()[1:2]
        outcomes = _sweep(server, portfolio, points=points)
        assert [outcome.index for outcome in outcomes] == [1]
        assert server.posted == [points[0].scenario.to_dict()]

    def test_each_point_is_hashed_once(self, stub, monkeypatch):
        hashed = []
        cache_key = Scenario.cache_key

        def counting_cache_key(scenario):
            hashed.append(scenario)
            return cache_key(scenario)

        monkeypatch.setattr(Scenario, "cache_key", counting_cache_key)
        outcomes = _sweep(stub(), _portfolio((2, 3, 2, 3)))
        assert len(outcomes) == 4
        # The expansion hashes each point; the client never re-hashes.
        assert len(hashed) == 4

    def test_on_unique_reports_each_unique_point(self, stub):
        seen = []
        _sweep(stub(max_queue=1), _portfolio((2, 3, 2)),
               on_unique=lambda done, total, outcome:
               seen.append((done, total, outcome.source)))
        assert seen == [(1, 2, "evaluated"), (2, 2, "evaluated")]


class TestReachability:
    def test_unreachable_server_raises_before_any_point(self):
        with pytest.raises(OSError):
            run_portfolio_remote(_portfolio(), "127.0.0.1", _closed_port(),
                                 timeout=5)

    def test_metrics_error_raises_plan_server_error(self, stub):
        server = stub(metrics_status=500)
        with pytest.raises(PlanServerError) as raised:
            _sweep(server)
        assert raised.value.status == 500
        assert server.posted == []

    @pytest.mark.parametrize("metrics", [
        {"status": "ok"},
        {"scheduler": {"max_queue": 2}},
        {"scheduler": {"jobs": 2}},
        {"scheduler": {"jobs": "2", "max_queue": None}},
        {"scheduler": {"jobs": 2, "max_queue": 0}},
        {"scheduler": ["jobs", "max_queue"]},
        ["scheduler"],
    ], ids=["no-scheduler", "no-jobs", "no-max-queue", "jobs-not-int",
            "max-queue-zero", "scheduler-not-a-dict", "not-a-dict"])
    def test_metrics_of_another_service_raise_plan_server_error(
            self, stub, metrics):
        server = stub(metrics=metrics)
        with pytest.raises(PlanServerError) as raised:
            _sweep(server)
        assert "is not a plan server" in str(raised.value)
        assert server.posted == []

    def test_non_http_service_raises_oserror(self):
        with _banner_server() as port:
            with pytest.raises(OSError) as raised:
                run_portfolio_remote(_portfolio(), "127.0.0.1", port,
                                     timeout=5)
        assert "over HTTP" in str(raised.value)


class TestSweepCli:
    def _write(self, tmp_path, portfolio):
        path = tmp_path / "portfolio.json"
        path.write_text(portfolio.to_json())
        return str(path)

    def test_progress_and_manifest_sources_come_from_the_server(
            self, stub, tmp_path, capsys):
        server = stub(script=[(200, "store", {"step_time": 1.0}),
                              (200, "store", {"step_time": 1.0})])
        path = self._write(tmp_path, _portfolio((2, 3), name="cli-remote"))
        main(["sweep", "--file", path, "--server",
              f"127.0.0.1:{server.port}", "--output-dir",
              str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "[cli-remote] 1/2: max_candidates=" in out
        assert out.count(", store)") == 2
        manifest = json.loads(
            (tmp_path / "out" / "cli-remote.json").read_text())
        assert manifest["sweep"]["mode"] == "server"
        assert manifest["sweep"]["sources"] == {"store": 2}

    def test_timeout_fails_the_slow_point_and_exits_1(self, stub, tmp_path,
                                                      capsys):
        server = stub(script=[SLOW])
        path = self._write(tmp_path, _portfolio((2, 3), name="cli-slow"))
        assert main(["sweep", "--file", path, "--server",
                     f"127.0.0.1:{server.port}", "--timeout", "0.2",
                     "--no-write"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count(", failed)") == 1
        assert captured.out.count(", evaluated)") == 1
        assert "timed out after 0.2s" in captured.err

    def test_server_of_another_kind_exits_2_without_traceback(
            self, stub, tmp_path, capsys):
        server = stub(metrics={"status": "ok"})
        path = self._write(tmp_path, _portfolio((2,), name="cli-other"))
        assert main(["sweep", "--file", path, "--server",
                     f"127.0.0.1:{server.port}", "--no-write"]) == 2
        err = capsys.readouterr().err
        assert "is not a plan server" in err
        assert "Traceback" not in err
        with _banner_server() as port:
            assert main(["sweep", "--file", path, "--server",
                         f"127.0.0.1:{port}", "--no-write"]) == 2
        assert "cannot sweep via plan server" in capsys.readouterr().err

    def test_poll_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["sweep", "fig13", "--reduced", "--server",
                  "127.0.0.1:1", "--poll", "0.5"])
        assert raised.value.code == 2
        assert "--poll" in capsys.readouterr().err
