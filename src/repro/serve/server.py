"""The asyncio front end: routing, connection handling, lifecycle.

:class:`QueryServer` owns an ``asyncio.start_server`` listener and
maps the four endpoints onto a :class:`~repro.serve.service.
QueryService`:

* ``POST /v1/execute``  — run a statement (optionally prepared with
  a ``params`` array/object), JSON result;
* ``POST /v1/explain``  — the plan (``{"analyze": true}`` executes);
* ``GET  /v1/tables``   — catalog table schemas;
* ``GET  /v1/metrics``  — Prometheus text exposition;
* ``GET  /v1/healthz``  — gateway/tenant/cache/memory state.

Connections are keep-alive; engine exceptions become typed JSON errors
via :mod:`repro.serve.wire` (429 shed / 503 memory pressure / 408 timeout...),
so an overloaded server answers fast instead of stacking latency.

:class:`ServerThread` hosts a server (and its event loop) on a
background thread for synchronous callers — tests, benchmarks, and the
CI smoke job all use it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Optional, Tuple

from repro.serve.http import (
    ProtocolError,
    Request,
    read_request,
    render_response,
)
from repro.serve.service import (
    ANONYMOUS_TENANT,
    PRIORITY_HEADER,
    TENANT_HEADER,
    QueryService,
)
from repro.serve.wire import error_response, json_body

__all__ = ["QueryServer", "ServerThread"]

_ROUTES = {
    ("POST", "/v1/execute"),
    ("POST", "/v1/explain"),
    ("GET", "/v1/tables"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/healthz"),
}
_PATHS = {path for _, path in _ROUTES}


class QueryServer:
    """One listening socket in front of one :class:`QueryService`."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Graceful-drain state, all touched only on the event loop
        #: thread: once ``_draining`` is set the listener is closed,
        #: in-flight requests run to completion (``_idle`` signals the
        #: last one), and idle keep-alive connections are cancelled.
        self._draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._connections: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        # Created here, not in __init__, so the Event binds to the loop
        # the server actually runs on.
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host,
            port=self._requested_port)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting and wait for in-flight handlers to drain."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work.

        Closes the listener so no new connections arrive, waits (up to
        ``timeout`` seconds, forever when None) for every in-flight
        request to finish and its response to flush, then cancels the
        remaining connection handlers — which at that point are either
        idle keep-alive connections parked in ``read_request`` or
        requests that outlived the deadline."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._idle is not None and not self._idle.is_set():
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass  # deadline expired: cancel the stragglers
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                if self._draining:
                    return
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(render_response(
                        exc.status,
                        json_body({"error": {"code": "BAD_REQUEST",
                                             "message": str(exc)}}),
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                self._active += 1
                self._idle.clear()
                try:
                    status, payload = await self._dispatch(request)
                    writer.write(payload)
                    await writer.drain()
                finally:
                    self._active -= 1
                    if self._active == 0:
                        self._idle.set()
                if not request.keep_alive or self._draining:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass  # client went away (or drain cancelled an idle wait)
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # Shutdown cancellation can land while we drain the
                # close; finishing normally here keeps the stream
                # protocol's done-callback from logging it as an error.
                pass

    async def _dispatch(self, request: Request) -> Tuple[int, bytes]:
        """Route one request; returns (status, full response bytes)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        endpoint = request.path if request.path in _PATHS else "(unknown)"
        keep = request.keep_alive
        try:
            status, headers, body, content_type = \
                await self._route(request)
        except Exception as exc:  # typed engine errors → JSON envelope
            status, headers, payload = error_response(exc)
            body = json_body(payload)
            content_type = "application/json"
        response = render_response(status, body, headers=headers,
                                   keep_alive=keep,
                                   content_type=content_type)
        self.service.observe(endpoint, status, loop.time() - started)
        return status, response

    async def _route(self, request: Request
                     ) -> Tuple[int, Dict[str, str], bytes, str]:
        method, path = request.method, request.path
        path = path.split("?", 1)[0]
        if path not in _PATHS:
            return (404, {}, json_body(
                {"error": {"code": "NOT_FOUND",
                           "message": f"no route {path!r}"}}),
                "application/json")
        if (method, path) not in _ROUTES:
            return (405, {"Allow": _allowed(path)}, json_body(
                {"error": {"code": "METHOD_NOT_ALLOWED",
                           "message": f"{method} not allowed on {path}"}}),
                "application/json")
        tenant = request.header(TENANT_HEADER) or ANONYMOUS_TENANT
        priority = request.header(PRIORITY_HEADER)
        if path == "/v1/execute":
            body = await self.service.execute(request.body, tenant,
                                              priority)
            return 200, {}, body, "application/json"
        if path == "/v1/explain":
            payload = await self.service.explain(request.body, tenant,
                                                 priority)
            return 200, {}, json_body(payload), "application/json"
        if path == "/v1/tables":
            payload = await self.service.tables(tenant)
            return 200, {}, json_body(payload), "application/json"
        if path == "/v1/metrics":
            text = await self.service.metrics()
            return (200, {}, text.encode("utf-8"),
                    "text/plain; version=0.0.4")
        payload = await self.service.healthz()
        return 200, {}, json_body(payload), "application/json"


def _allowed(path: str) -> str:
    return ", ".join(sorted(m for m, p in _ROUTES if p == path))


class ServerThread:
    """A :class:`QueryServer` on a daemon thread with its own loop.

    ::

        with ServerThread(service) as handle:
            requests_go_to(f"http://127.0.0.1:{handle.port}")

    ``stop()`` (or context exit) closes the listener, drains the loop,
    and joins the thread; the service itself stays open — its owner
    decides when to close the session."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = QueryServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("server thread failed to start in 10s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure and friends
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            # stop() was called: drain the listener and pending tasks.
            loop.run_until_complete(self.server.close())
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
        finally:
            loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.port}"

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
