"""Stdlib-only HTTP front end of the plan server (``repro serve``).

:class:`PlanServer` speaks a deliberately small JSON-over-HTTP/1.1 wire
format on top of ``asyncio.start_server`` — no web framework, the repo's
only runtime dependency stays ``numpy``:

* ``POST /v1/plan`` — body is one scenario document; responds with the
  serialized :class:`~repro.api.service.PlanResult` payload (the exact
  ``repro plan`` output). The ``X-Repro-Source`` response header reports
  which path served it (``store`` / ``inflight`` / ``evaluated``).
* ``POST /v1/plan/batch`` — body is a JSON array of scenario documents (or
  ``{"scenarios": [...]}``); responds ``{"results": [...]}`` in request
  order, invalid items as inline ``{"error": {...}}`` payloads.
* ``GET /healthz`` — liveness/readiness probe.
* ``GET /metrics`` — the scheduler's counter document (requests, dedup,
  store hits/misses, plan-cache hits/misses, latency).
  ``GET /metrics?format=prometheus`` serves the same data in the
  Prometheus text exposition format (version 0.0.4) with native
  ``_bucket``/``_sum``/``_count`` histogram series aggregated across the
  worker pool.

A portfolio sweep against the server (``repro sweep --server``) runs on
the client and sends each unique point as one ``POST /v1/plan``
(:func:`~repro.server.portfolio.run_portfolio_remote`).

Malformed requests get structured ``{"error": {...}}`` bodies with 400-class
statuses, never tracebacks. Load-shed requests (admission control) get a
503 with a ``Retry-After`` header; deadline-expired ones a 504 — both with
``"retryable"`` set in the error payload so clients know whether backing
off helps (see :mod:`repro.server.resilience`). Connections are one-request
(``Connection: close``): plan evaluation dwarfs connection setup, and it
keeps the protocol loop trivially correct.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple, Union

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.server.scheduler import PlanRequestError, PlanScheduler, error_payload

#: Hard cap on request bodies (a scenario document is < 1 KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """An unparsable HTTP request (maps to a structured 400)."""


class RawBody:
    """A non-JSON response body with its own content type.

    Routes return one of these instead of a JSON payload when the wire
    format is not JSON — e.g. the Prometheus text exposition of
    ``GET /metrics?format=prometheus``.
    """

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class PlanServer:
    """Async HTTP server wrapping one :class:`PlanScheduler`.

    Args:
        scheduler: the scheduler to serve (started by :meth:`start` if
            needed; :meth:`close` closes it).
        host: bind address.
        port: bind port; ``0`` picks an ephemeral one, readable from
            :attr:`port` after :meth:`start`.
    """

    def __init__(self, scheduler: PlanScheduler, host: str = "127.0.0.1",
                 port: int = 8099) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    # Lifecycle -------------------------------------------------------------------

    async def start(self) -> None:
        """Start the scheduler and begin listening (resolves :attr:`port`)."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        if self._server is None:
            raise RuntimeError("PlanServer.start() was never awaited")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain in-flight requests, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    async def __aenter__(self) -> "PlanServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # Protocol --------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        chaos = self.scheduler.chaos
        if chaos is not None and chaos.on_http_request():
            # flaky-http chaos: drop the connection unanswered, exactly
            # like a flaky network would — the client's retry/backoff
            # path is what this exercises.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        try:
            try:
                request = await self._read_request(reader)
            except _BadRequest as error:
                await self._respond(writer, 400,
                                    error_payload(str(error), kind="protocol"))
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:  # client closed without sending anything
                return
            method, target, body = request
            try:
                status, payload, headers = await self._route(
                    method, target, body)
            except Exception as error:
                # Last resort: an unexpected bug must still answer with a
                # structured 500, not a silently dropped connection.
                status, headers = 500, None
                payload = error_payload(f"internal server error: {error}",
                                        kind=type(error).__name__,
                                        status=500)
            await self._respond(writer, status, payload, headers)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("malformed Content-Length header") \
                        from None
        if content_length < 0 or content_length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"request body must be 0..{MAX_BODY_BYTES} bytes")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, target, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Union[Dict[str, object], RawBody],
                       headers: Optional[Dict[str, str]] = None) -> None:
        if isinstance(payload, RawBody):
            body = payload.body
            content_type = payload.content_type
        else:
            content_type = "application/json"
            try:
                body = json.dumps(payload, sort_keys=True,
                                  allow_nan=False).encode("utf-8")
            except (TypeError, ValueError) as error:
                # A payload that is not strict JSON (e.g. a stray inf) must
                # not take the connection down with it.
                status = 500
                body = json.dumps(
                    error_payload(f"unserializable response: {error}",
                                  kind="internal", status=500),
                    sort_keys=True).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # Routing ---------------------------------------------------------------------

    async def _route(
            self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, object], RawBody],
               Optional[Dict[str, str]]]:
        target, _, query = target.partition("?")
        if target == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, {"status": "ok"}, None
        if target == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            stats = self.scheduler.stats()
            if _query_params(query).get("format") == "prometheus":
                text = render_prometheus(
                    stats,
                    self.scheduler.merged_registry().histogram_snapshots())
                return 200, RawBody(text.encode("utf-8"),
                                    PROMETHEUS_CONTENT_TYPE), None
            return 200, stats, None
        if target == "/v1/plan":
            if method != "POST":
                return self._method_not_allowed("POST")
            return await self._route_plan(body)
        if target == "/v1/plan/batch":
            if method != "POST":
                return self._method_not_allowed("POST")
            return await self._route_plan_batch(body)
        return 404, error_payload(f"no route for {target!r}",
                                  kind="not_found", status=404), None

    @staticmethod
    def _error_response(
            error: PlanRequestError
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        """A PlanRequestError as a response triple (Retry-After on sheds)."""
        headers = None
        if error.retry_after is not None:
            headers = {"Retry-After": str(max(1, int(error.retry_after)))}
        return error.status, error.payload, headers

    @staticmethod
    def _method_not_allowed(
            allowed: str) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        payload = error_payload(f"method not allowed; use {allowed}",
                                kind="method_not_allowed", status=405)
        return 405, payload, {"Allow": allowed}

    async def _route_plan(
            self, body: bytes
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        document, problem = _parse_json(body)
        if problem is not None:
            return 400, problem, None
        if not isinstance(document, dict):
            return 400, error_payload(
                "scenario document must be a JSON object; POST arrays to "
                "/v1/plan/batch"), None
        try:
            payload, source = await self.scheduler.submit_doc_traced(document)
        except PlanRequestError as error:
            return self._error_response(error)
        headers = {"X-Repro-Source": source}
        if "error" in payload:
            return payload["error"].get("status", 422), payload, headers
        return 200, payload, headers

    async def _route_plan_batch(
            self, body: bytes
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        document, problem = _parse_json(body)
        if problem is not None:
            return 400, problem, None
        if isinstance(document, dict) and set(document) == {"scenarios"}:
            document = document["scenarios"]
        if not isinstance(document, list):
            return 400, error_payload(
                "batch body must be a JSON array of scenario documents "
                "(or {\"scenarios\": [...]})"), None
        try:
            results = await self.scheduler.submit_batch(document)
        except PlanRequestError as error:
            return self._error_response(error)
        errors = sum(1 for result in results if "error" in result)
        headers = {"X-Repro-Errors": str(errors)}
        return 200, {"results": results, "errors": errors}, headers


def _query_params(query: str) -> Dict[str, str]:
    """A query string as a flat dict (last value wins, no decoding needed
    for the single ASCII parameter the server understands)."""
    params: Dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        params[name] = value
    return params


def _parse_json(
        body: bytes) -> Tuple[object, Optional[Dict[str, object]]]:
    """Decode a request body; the second element is a 400 error payload."""
    try:
        return json.loads(body.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return None, error_payload(f"invalid JSON body: {error}",
                                   kind="protocol")
