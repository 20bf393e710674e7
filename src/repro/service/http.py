"""Minimal asyncio HTTP/1.1 transport for :class:`SketchService`.

Hand-rolled over ``asyncio.start_server`` — the container has no web
framework, and the service needs only a JSON-over-HTTP surface: fixed
routes, ``Content-Length`` bodies, keep-alive.  Every route maps
one-to-one onto a :class:`~repro.service.service.SketchService` method,
so the HTTP layer adds no semantics of its own; the equivalence
invariants drive the service core directly and their guarantees carry
over to HTTP clients verbatim.

Routes (JSON request/response unless noted)::

    GET    /healthz                        liveness probe
    GET    /metrics                        Prometheus text exposition
    GET    /tenants                        list tenants + budget status
    POST   /tenants                        create tenant (body = spec)
    GET    /tenants/{name}                 tenant status
    DELETE /tenants/{name}                 delete tenant
    POST   /tenants/{name}/ingest          {"items": [...]}  (enqueue)
    POST   /tenants/{name}/window          {"count": 1}      (barrier)
    POST   /tenants/{name}/checkpoint      force a checkpoint now
    POST   /tenants/{name}/estimate        {"keys": [...]}
    POST   /tenants/{name}/explain         {"key": ...}
    POST   /tenants/{name}/report          {"threshold": N}
    POST   /tenants/{name}/find-persistent {"alpha": 0.6}

Errors map by exception type: :class:`UnknownTenantError` → 404,
:class:`AdmissionError` (budget or backpressure) → 429, any other
:class:`ServiceError` → 400, unexpected exceptions → 500 with the
exception class named in the body.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from ..common.errors import (
    AdmissionError,
    ReproError,
    ServiceError,
    UnknownTenantError,
)
from .service import SketchService

#: Largest accepted request body (a window of ~1M short keys as JSON).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """Internal: abort request handling with a specific status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceServer:
    """Bind a :class:`SketchService` to a TCP host/port.

    ``port=0`` asks the OS for an ephemeral port; read the bound one
    from :attr:`port` after :meth:`start` (the CLI prints it so smoke
    scripts can parse it).  :meth:`close` drains the service — final
    checkpoints included — before the sockets go away.
    """

    def __init__(self, service: SketchService, host: str = "127.0.0.1",
                 port: int = 8787):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._server = server
        # the requested-port read above and this bound-port write span
        # the bind await by construction; start() is a single-shot
        # startup call with no concurrent callers
        # staticcheck: ignore[SC-ASYNC-RACE] single-shot startup path
        self.port = server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        # detach before the first await: a second close() (or a request
        # racing shutdown) must observe the server as already gone, not
        # re-enter wait_closed on a half-dead object
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        await self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            # lazy single-shot start: the CLI calls serve_forever once,
            # before any client task exists that could interleave
            # staticcheck: ignore[SC-ASYNC-RACE] startup-only lazy init
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                self.service.requests_total += 1
                status, payload, content_type = await self._dispatch(
                    method, path, body
                )
                keep_alive = headers.get("connection", "") != "close"
                _write_response(writer, status, payload, content_type,
                                keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except _HttpError as exc:  # unparseable head/body: answer, hang up
            _write_response(writer, exc.status, _error_bytes(exc),
                            "application/json", keep_alive=False)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        try:
            out = await self._route(method, path, body)
            if isinstance(out, str):  # /metrics exposition text
                return 200, out.encode(), "text/plain; version=0.0.4"
            return 200, _json_bytes(out), "application/json"
        except _HttpError as exc:
            return exc.status, _error_bytes(exc), "application/json"
        except UnknownTenantError as exc:
            return 404, _error_bytes(exc), "application/json"
        except AdmissionError as exc:
            return 429, _error_bytes(exc), "application/json"
        except (ServiceError, ReproError) as exc:
            return 400, _error_bytes(exc), "application/json"
        # the one sanctioned broad handler in the service: an unexpected
        # bug in one request must become that request's 500, never kill
        # the keep-alive connection loop for every other tenant
        # staticcheck: ignore[SC-EXC] request boundary; 500 is the re-raise
        except Exception as exc:  # pragma: no cover - defensive
            return 500, _error_bytes(exc), "application/json"

    async def _route(self, method: str, path: str, body: bytes) -> Any:
        service = self.service
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return {"ok": True, "tenants": len(service.tenants)}
        if path == "/metrics" and method == "GET":
            return service.metrics_text()
        if path == "/tenants":
            if method == "GET":
                return service.list_tenants()
            if method == "POST":
                return await service.create_tenant(_json_body(body))
            raise _HttpError(405, f"{method} not allowed on {path}")
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "tenants" or len(parts) > 3:
            raise _HttpError(404, f"no route for {path}")
        name = parts[1]
        if len(parts) == 2:
            if method == "GET":
                return service.tenant_status(name)
            if method == "DELETE":
                return await service.delete_tenant(name)
            raise _HttpError(405, f"{method} not allowed on {path}")
        action = parts[2]
        if method != "POST":
            raise _HttpError(405, f"{method} not allowed on {path}")
        payload = _json_body(body) if body else {}
        if action == "ingest":
            return await service.ingest(name, payload.get("items"))
        if action == "window":
            return await service.end_window(
                name, _number(payload, "count", 1, int)
            )
        if action == "checkpoint":
            return await service.checkpoint_tenant(name)
        if action == "estimate":
            keys = payload.get("keys")
            if not isinstance(keys, list):
                raise ServiceError('estimate body needs {"keys": [...]}')
            return service.estimate(name, keys)
        if action == "explain":
            if "key" not in payload:
                raise ServiceError('explain body needs {"key": ...}')
            return service.explain(name, payload["key"])
        if action == "report":
            return service.report(
                name, _number(payload, "threshold", 1, int)
            )
        if action == "find-persistent":
            return service.find_persistent(
                name, _number(payload, "alpha", 0.5, float)
            )
        raise _HttpError(404, f"no route for {path}")


# ----------------------------------------------------------------------
# wire helpers
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    if len(head) > MAX_HEAD_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, f"malformed request line {lines[0]!r}") \
            from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip().lower()
    raw_length = headers.get("content-length", "0") or "0"
    # 1*DIGIT only: int() would also take "-5", "+5", "1_0" and non-ASCII
    # digits, and a ValueError here would escape as a traceback
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(400, f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds limit")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _write_response(writer: asyncio.StreamWriter, status: int,
                    payload: bytes, content_type: str,
                    keep_alive: bool) -> None:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + payload)


def _json_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"request body is not JSON: {exc}") \
            from None
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


def _number(payload: Dict[str, Any], field: str, default: Any,
            kind: type) -> Any:
    """``kind(payload[field])``, with a 400 instead of a 500 on junk."""
    value = payload.get(field, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ServiceError(
            f"{field} must be a number, got {value!r:.40}"
        ) from None


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _error_bytes(exc: Exception) -> bytes:
    return _json_bytes(
        {"error": type(exc).__name__, "message": str(exc)}
    )


async def run_server(service: SketchService, host: str, port: int,
                     announce=None) -> None:
    """Start, announce, and run until cancelled; drain on the way out.

    ``announce(server)`` fires after binding (the CLI prints the bound
    port here).  Cancellation — KeyboardInterrupt via ``asyncio.run``,
    or task cancellation in tests — triggers a graceful close: sockets
    first, then the service (final per-tenant checkpoints).
    """
    server = ServiceServer(service, host, port)
    await server.start()
    if announce is not None:
        announce(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
