"""Blocking stdlib client of the plan server's wire format.

:class:`PlanClient` is what ``repro submit`` (and the CI server smoke step)
uses: plain ``http.client`` requests against the endpoints of
:mod:`repro.server.http`, raising :class:`PlanServerError` with the
structured error payload on non-2xx responses.

The client is resilient by default: plan requests are idempotent by
:meth:`Scenario.cache_key <repro.api.scenario.Scenario.cache_key>`, so a
dropped connection or a load-shed 503 is retried under a shared
:class:`~repro.server.resilience.RetryPolicy` — exponential backoff with
jitter, honouring the server's ``Retry-After`` header. Request timeouts are
*not* retried (a slow server is not a flaky one; the caller set the
budget), and ``retry=RetryPolicy(max_attempts=1)`` disables retries
entirely.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Dict, List, Optional, Union

from repro.api.scenario import Scenario
from repro.server.resilience import RetryPolicy

#: Default client policy: a handful of jittered retries spanning ~1s.
DEFAULT_CLIENT_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05,
                                   max_delay=1.0)

#: A request: either an already-built Scenario or its raw document.
ScenarioLike = Union[Scenario, Dict[str, object]]


class PlanServerError(RuntimeError):
    """A non-2xx response; carries the server's structured error payload."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        detail = payload.get("error", payload) if isinstance(payload, dict) \
            else payload
        super().__init__(f"plan server returned {status}: {detail}")
        self.status = status
        self.payload = payload


class PlanClient:
    """One plan-server endpoint (host, port) to submit scenarios to.

    Attributes:
        last_source: which path served the most recent :meth:`plan` call
            (``"store"`` / ``"inflight"`` / ``"evaluated"``), from the
            ``X-Repro-Source`` response header.
        retries_performed: total retried requests over the client's
            lifetime (connection failures + 503 sheds).
        last_attempts: how many attempts the most recent request took.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8099,
                 timeout: float = 120.0,
                 retry: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        self.rng = rng
        self.last_source: Optional[str] = None
        self.retries_performed = 0
        self.last_attempts = 0

    # Endpoints -------------------------------------------------------------------

    def plan(self, scenario: ScenarioLike) -> Dict[str, object]:
        """``POST /v1/plan``: one scenario -> one result payload."""
        status, headers, payload = self._request(
            "POST", "/v1/plan", _document(scenario))
        self.last_source = headers.get("x-repro-source")
        if status != 200:
            raise PlanServerError(status, payload)
        return payload

    def plan_batch(
            self, scenarios: List[ScenarioLike]) -> List[Dict[str, object]]:
        """``POST /v1/plan/batch``: ordered payloads, errors inline."""
        status, _, payload = self._request(
            "POST", "/v1/plan/batch",
            [_document(scenario) for scenario in scenarios])
        if status != 200:
            raise PlanServerError(status, payload)
        return payload["results"]

    def healthz(self) -> Dict[str, object]:
        """``GET /healthz`` (never retried: :meth:`wait_ready` owns the
        polling cadence, and a liveness probe must report liveness)."""
        status, _, payload = self._request("GET", "/healthz",
                                           retryable=False)
        if status != 200:
            raise PlanServerError(status, payload)
        return payload

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``: the scheduler's counter document."""
        status, _, payload = self._request("GET", "/metrics")
        if status != 200:
            raise PlanServerError(status, payload)
        return payload

    def wait_ready(self, timeout: float = 10.0,
                   interval: float = 0.1) -> bool:
        """Poll ``/healthz`` until the server answers (or time runs out)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.healthz()
                return True
            except (OSError, PlanServerError):
                if time.monotonic() >= deadline:
                    return False
                time.sleep(interval)

    # Transport -------------------------------------------------------------------

    def _request(self, method: str, path: str, body: object = None,
                 retryable: bool = True):
        """One request, retried with backoff on transient failures.

        Retried: connection-level ``OSError`` (refused, reset, dropped
        mid-response) and 503 responses (load shed / shutting down),
        sleeping the jittered policy delay — or the server's ``Retry-After``
        when it asks for longer. Not retried: timeouts (the caller's
        budget) and every other status (terminal by the taxonomy).
        """
        last_error: Optional[OSError] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self.last_attempts = attempt
            final = attempt == self.retry.max_attempts or not retryable
            try:
                status, headers, payload = self._request_once(
                    method, path, body)
            except TimeoutError:
                raise
            except OSError as error:
                if final:
                    raise
                last_error = error
                self._backoff(attempt)
                continue
            if status == 503 and not final:
                self._backoff(attempt, headers.get("retry-after"))
                continue
            return status, headers, payload
        raise last_error  # unreachable: the final attempt raised/returned

    def _backoff(self, attempt: int,
                 retry_after: Optional[str] = None) -> None:
        delay = self.retry.delay(attempt, rng=self.rng)
        if retry_after is not None:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        self.retries_performed += 1
        time.sleep(delay)

    def _request_once(self, method: str, path: str, body: object = None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            data = None
            headers = {}
            if body is not None:
                data = json.dumps(body, allow_nan=False).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except socket.timeout as error:
                raise TimeoutError(
                    f"plan server at {self.host}:{self.port} timed out "
                    f"after {self.timeout}s") from error
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {"error": {"type": "protocol",
                                     "message": "non-JSON response body",
                                     "status": response.status}}
            headers_out = {name.lower(): value
                           for name, value in response.getheaders()}
            return response.status, headers_out, payload
        finally:
            connection.close()


def _document(scenario: ScenarioLike) -> Dict[str, object]:
    """A scenario (object or raw document) as its wire document."""
    if isinstance(scenario, Scenario):
        return scenario.to_dict()
    return scenario
