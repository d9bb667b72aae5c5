"""The HTTP server: one event loop, admission control, load shedding.

The directory stays a *threaded* object — readers share the RWLock,
writers take it exclusively — but the connection layer here is a
single ``asyncio`` event loop speaking HTTP/1.1 over an
``asyncio.Protocol``.  One loop owns every socket: keep-alive and
pipelined parsing cost a buffer scan instead of a thread, so tens of
thousands of idle connections are cheap.  Parsed requests hop to a
small worker pool (``run_in_executor``) that calls a
:class:`repro.service.app.BaseApp`; the server only adds framing
headers, so its bodies are the app's bytes.  The same server fronts
every node kind — directory (:func:`serve_directory`) and the shard,
replica and router apps of :mod:`repro.distrib.http`.

On top of plain HTTP/1.1 the server provides:

* **Admission control** — per-route-class in-flight budgets.  Heavy
  routes (classify/search/add/...) and cheap routes (healthz/metrics)
  draw from separate budgets *and* separate worker pools, so a
  saturating classify storm can never starve health probes.
* **Load shedding** — when a budget is full the request is answered
  *immediately* with a structured ``429 + Retry-After`` body instead of
  queueing without bound; when the connection cap is hit, the newcomer
  gets the same 429 and a clean close instead of a kernel reset.
* **Slowloris defense** — a client that dribbles header bytes is timed
  from the *first* byte of the request frame (the deadline does not
  reset per byte) and reaped with 408; idle keep-alive connections are
  closed after ``idle_timeout``.
* **Gauges** — open connections, per-class in-flight depth, shed
  counts, all on the app's existing ``/metrics`` registry.

``AsyncHTTPServer`` exposes ``port``, ``base_url``,
``serve_in_thread()``, ``serve_forever()`` and ``shut_down()`` for the
CLI, tests and benchmarks.
"""

import asyncio
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.service.app import (
    ApiError,
    BaseApp,
    DEFAULT_MAX_REQUEST_BYTES,
    DirectoryApp,
    Response,
    check_content_length,
    error_response,
)

#: Hard cap on a request head (request line + headers); more is a 431.
MAX_HEADER_BYTES = 32 * 1024

#: Above this many parsed-but-unanswered pipelined requests on one
#: connection, stop reading from its socket until the queue drains.
PIPELINE_HIGH_WATER = 64


@dataclass
class AdmissionConfig:
    """Knobs for the admission controller.

    ``max_inflight`` bounds concurrently-executing *heavy* requests
    (classify/search/add/remove/clusters + replication); overflow is
    shed with ``429 + Retry-After``.  ``cheap_inflight`` is the separate
    budget for ``/healthz`` and ``/metrics``.  ``heavy_workers`` /
    ``cheap_workers`` size the two executor pools — keeping them
    distinct means a wedged classify pool cannot starve liveness
    probes.  Heavy handlers are CPU-bound Python under one GIL, so
    each extra heavy worker takes GIL time from the loop thread that
    reads, parses and writes every socket: at c=1024 on 2 CPUs, 8
    workers doubled the connect-to-last-response p50 that 2 give.
    ``max_connections`` bounds open sockets (newcomers beyond it get a
    429 and a clean close, never a silent reset) and ``backlog`` is the
    kernel accept queue.  ``header_timeout`` reaps slowloris clients
    (measured from the first byte of a request frame);
    ``idle_timeout`` closes idle keep-alive connections.
    """

    max_inflight: int = 64
    cheap_inflight: int = 16
    heavy_workers: int = 2
    cheap_workers: int = 2
    max_connections: int = 4096
    backlog: int = 512
    retry_after: int = 1
    header_timeout: float = 5.0
    idle_timeout: float = 60.0


class AdmissionController:
    """In-flight budgets + shed/connection gauges.

    Counters are touched only from the event-loop thread, so plain ints
    suffice; the metric gauges read them from scrape threads, which is
    safe because int reads are atomic in CPython.
    """

    def __init__(self, config: AdmissionConfig, metrics) -> None:
        self.config = config
        self.inflight = {"heavy": 0, "cheap": 0}
        self.shed = {"heavy": 0, "cheap": 0}
        self.connections_open = 0
        self.connections_total = 0
        self.connections_shed = 0
        self._budget = {
            "heavy": config.max_inflight,
            "cheap": config.cheap_inflight,
        }
        metrics.gauge(
            "server_connections_open", "Open sockets",
        ).set_function(lambda: float(self.connections_open))
        metrics.gauge(
            "server_connections_total", "Connections accepted since start",
        ).set_function(lambda: float(self.connections_total))
        for route_class in ("heavy", "cheap"):
            metrics.gauge(
                "server_inflight_requests",
                "Requests currently executing",
                route=route_class,
            ).set_function(
                lambda rc=route_class: float(self.inflight[rc])
            )
            metrics.gauge(
                "server_requests_shed_total",
                "Requests shed with 429 by admission control",
                route=route_class,
            ).set_function(
                lambda rc=route_class: float(self.shed[rc])
            )

    def try_admit(self, route_class: str) -> bool:
        if self.inflight[route_class] >= self._budget[route_class]:
            self.shed[route_class] += 1
            return False
        self.inflight[route_class] += 1
        return True

    def release(self, route_class: str) -> None:
        self.inflight[route_class] -= 1

    def overloaded_error(self) -> ApiError:
        return ApiError(
            429, "overloaded",
            "server is at capacity; retry after backoff",
            retry_after=self.config.retry_after,
        )


class _ParsedRequest:
    """One request off the wire, or a framing error to answer in order."""

    __slots__ = ("method", "target", "body", "error", "close_after")

    def __init__(
        self,
        method: str = "",
        target: str = "",
        body: bytes = b"",
        error: Optional[ApiError] = None,
        close_after: bool = False,
    ) -> None:
        self.method = method
        self.target = target
        self.body = body
        self.error = error
        self.close_after = close_after


class _Connection(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection on the event loop.

    Bytes accumulate in ``_buffer``; ``_parse_available`` peels complete
    requests into ``_queue`` (pipelining), and a single ``_drain`` task
    answers them strictly in order.  All state is loop-thread-only.
    """

    def __init__(self, server: "AsyncHTTPServer") -> None:
        self.server = server
        self.transport = None
        self._buffer = bytearray()
        self._queue: Deque[_ParsedRequest] = deque()
        self._drain_task: Optional[asyncio.Task] = None
        self._paused = False
        self._closing = False
        # Timestamp (loop clock) when the current partial frame started;
        # None while no bytes are pending.  The slowloris deadline is
        # measured from here and deliberately NOT reset per byte.
        self._frame_started: Optional[float] = None
        self._timeout_handle: Optional[asyncio.TimerHandle] = None
        # Expected body length once headers are parsed; None = still in
        # the header phase.
        self._pending_head: Optional[Tuple[str, str, dict, bool]] = None
        self._pending_body_len = 0
        self._idle_since: Optional[float] = None

    # -- protocol callbacks -------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        admission = server.admission
        admission.connections_total += 1
        if admission.connections_open >= admission.config.max_connections:
            # Over the connection cap: answer with a structured 429 and
            # close cleanly — never a silent kernel reset.
            admission.connections_shed += 1
            response = error_response(admission.overloaded_error())
            transport.write(
                _render(response, server.app.server_version, close=True)
            )
            transport.close()
            self._closing = True
            return
        admission.connections_open += 1
        server._connections.add(self)
        self._idle_since = server.loop.time()
        self._arm_timeout()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self._closing = True
        if self in self.server._connections:
            self.server._connections.discard(self)
            self.server.admission.connections_open -= 1
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None

    def data_received(self, data: bytes) -> None:
        if self._closing:
            return
        self._buffer += data
        if self._frame_started is None and self._buffer:
            self._frame_started = self.server.loop.time()
        self._parse_available()
        self._maybe_pause()
        if self._queue and self._drain_task is None:
            self._drain_task = self.server.loop.create_task(self._drain())

    def eof_received(self) -> bool:
        return False  # close when the peer half-closes

    # -- parsing ------------------------------------------------------

    def _parse_available(self) -> None:
        while not self._closing:
            if self._pending_head is not None:
                if len(self._buffer) < self._pending_body_len:
                    return
                method, target, _headers, close_after = self._pending_head
                body = bytes(self._buffer[: self._pending_body_len])
                del self._buffer[: self._pending_body_len]
                self._pending_head = None
                self._queue.append(
                    _ParsedRequest(method, target, body,
                                   close_after=close_after)
                )
                self._frame_started = (
                    self.server.loop.time() if self._buffer else None
                )
                continue
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                if len(self._buffer) > MAX_HEADER_BYTES:
                    self._enqueue_error(ApiError(
                        431, "headers_too_large",
                        f"request head exceeds {MAX_HEADER_BYTES} bytes",
                    ))
                return
            head = bytes(self._buffer[:head_end])
            del self._buffer[: head_end + 4]
            try:
                method, target, headers, close_after = self._parse_head(head)
            except ApiError as error:
                self._enqueue_error(error)
                return
            if method == "POST":
                try:
                    length = check_content_length(
                        headers.get("content-length"),
                        self.server.max_request_bytes,
                    )
                except ApiError as error:
                    # 411/413: the body (if any) was never framed, so
                    # keep-alive can't continue past this request.
                    self._enqueue_error(error)
                    return
                self._pending_head = (method, target, headers, close_after)
                self._pending_body_len = length
                continue
            # Non-POST requests with a body: consume it to keep framing.
            length_header = headers.get("content-length")
            if length_header is not None:
                try:
                    length = check_content_length(
                        length_header, self.server.max_request_bytes
                    )
                except ApiError as error:
                    self._enqueue_error(error)
                    return
                self._pending_head = (method, target, headers, close_after)
                self._pending_body_len = length
                continue
            self._queue.append(
                _ParsedRequest(method, target, close_after=close_after)
            )
            self._frame_started = (
                self.server.loop.time() if self._buffer else None
            )

    def _parse_head(
        self, head: bytes
    ) -> Tuple[str, str, dict, bool]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:
            raise ApiError(400, "bad_request", "undecodable request head")
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ApiError(400, "bad_request", "malformed request line")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise ApiError(
                505, "http_version_not_supported",
                f"unsupported protocol version {version!r}",
            )
        headers: dict = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ApiError(400, "bad_request",
                               f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise ApiError(
                501, "not_implemented",
                "chunked transfer encoding is not supported",
            )
        connection = headers.get("connection", "").lower()
        close_after = (
            "close" in connection
            or (version == "HTTP/1.0" and "keep-alive" not in connection)
        )
        return method, target, headers, close_after

    def _enqueue_error(self, error: ApiError) -> None:
        # Framing errors still answer in pipeline order, then close:
        # the byte stream past a framing fault is unparseable.
        self._queue.append(_ParsedRequest(error=error, close_after=True))
        self._closing = True
        self._buffer.clear()
        self._frame_started = None
        if self._queue and self._drain_task is None:
            self._drain_task = self.server.loop.create_task(self._drain())

    # -- backpressure + timeouts --------------------------------------

    def _maybe_pause(self) -> None:
        if self.transport is None:
            return
        if not self._paused and len(self._queue) > PIPELINE_HIGH_WATER:
            self.transport.pause_reading()
            self._paused = True
        elif self._paused and len(self._queue) <= PIPELINE_HIGH_WATER // 2:
            self.transport.resume_reading()
            self._paused = False

    def _arm_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
        config = self.server.admission.config
        interval = min(
            config.header_timeout, config.idle_timeout, 1.0
        )
        self._timeout_handle = self.server.loop.call_later(
            max(interval / 2, 0.05), self._check_timeout
        )

    def _check_timeout(self) -> None:
        self._timeout_handle = None
        if self.transport is None or self._closing:
            return
        config = self.server.admission.config
        now = self.server.loop.time()
        if self._frame_started is not None:
            # Mid-frame: a partial request head/body has been pending
            # since _frame_started.  Slowloris clients live here.
            if now - self._frame_started >= config.header_timeout:
                if self._queue or self._drain_task is not None:
                    # In-order responses still flowing; just stop
                    # reading more and close after the queue drains.
                    self._enqueue_error(ApiError(
                        408, "request_timeout",
                        "timed out waiting for a complete request",
                    ))
                else:
                    response = error_response(ApiError(
                        408, "request_timeout",
                        "timed out waiting for a complete request",
                    ))
                    self.transport.write(_render(
                        response, self.server.app.server_version, close=True
                    ))
                    self._closing = True
                    self.transport.close()
                return
        elif not self._queue and self._drain_task is None:
            if self._idle_since is None:
                self._idle_since = now
            if now - self._idle_since >= config.idle_timeout:
                self._closing = True
                self.transport.close()
                return
        self._arm_timeout()

    # -- response path ------------------------------------------------

    async def _drain(self) -> None:
        try:
            while self._queue:
                request = self._queue.popleft()
                self._idle_since = None
                self._maybe_pause()
                close = request.close_after or self.server.draining
                if request.error is not None:
                    response = error_response(request.error)
                    self.server.app.observe(
                        "framing", response.status, self.server.app._now()
                    )
                else:
                    response = await self.server.dispatch(
                        request.method, request.target, request.body
                    )
                if self.transport is None:
                    return
                self.transport.write(_render(
                    response, self.server.app.server_version, close=close
                ))
                if close:
                    self._closing = True
                    self.transport.close()
                    return
            self._idle_since = self.server.loop.time()
        finally:
            self._drain_task = None
            if self._queue and not self._closing and self.transport is not None:
                # Requests parsed while we were finishing: keep going.
                self._drain_task = self.server.loop.create_task(self._drain())


def _render(response: Response, server_version: str, close: bool) -> bytes:
    head = [
        f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'OK')}",
        f"Server: {server_version}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
    ]
    for name, value in response.extra_headers:
        head.append(f"{name}: {value}")
    head.append("Connection: close" if close else "Connection: keep-alive")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}


class AsyncHTTPServer:
    """The HTTP server: one event loop, two worker pools, one app.

    The socket is bound eagerly in ``__init__`` (``port``/``base_url``
    valid immediately), ``serve_in_thread()`` runs the loop on a daemon
    thread, and ``shut_down()`` drains connections then calls
    ``app.close()``.
    """

    def __init__(
        self,
        app: BaseApp,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.app = app
        self.max_request_bytes = max_request_bytes
        self.admission = AdmissionController(
            admission or AdmissionConfig(), app.metrics_registry
        )
        config = self.admission.config
        # Bind eagerly so .port / .base_url work before the loop runs;
        # tests and the CLI read them before serving.
        self._socket = socket.create_server(
            address, backlog=config.backlog, reuse_port=False
        )
        self._socket.setblocking(False)
        self.loop = asyncio.new_event_loop()
        self._pools = {
            "heavy": ThreadPoolExecutor(
                max_workers=config.heavy_workers,
                thread_name_prefix="repro-aio-heavy",
            ),
            "cheap": ThreadPoolExecutor(
                max_workers=config.cheap_workers,
                thread_name_prefix="repro-aio-cheap",
            ),
        }
        self._connections: set = set()
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._shut = False
        self.draining = False

    # -- address surface ----------------------------------------------

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    @property
    def base_url(self) -> str:
        host = self._socket.getsockname()[0]
        return f"http://{host}:{self.port}"

    # -- lifecycle ----------------------------------------------------

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(
            target=self._run_loop, name="repro-aio", daemon=True
        )
        self._thread = thread
        thread.start()
        if not self._started.wait(timeout=15):
            raise RuntimeError("HTTP server failed to start")
        return thread

    def serve_forever(self) -> None:
        """Run the loop on the calling thread (the CLI foreground path).
        Ctrl-C triggers a graceful drain."""
        try:
            self._run_loop()
        except KeyboardInterrupt:
            self.shut_down()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main())
        finally:
            try:
                self.loop.run_until_complete(
                    self.loop.shutdown_asyncgens()
                )
            finally:
                self.loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        server = await self.loop.create_server(
            lambda: _Connection(self), sock=self._socket
        )
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            self.draining = True
            server.close()
            await server.wait_closed()
            # Give in-flight responses a moment, then abort stragglers.
            for _ in range(50):
                if not any(
                    conn._drain_task is not None or conn._queue
                    for conn in self._connections
                ):
                    break
                await asyncio.sleep(0.1)
            for conn in list(self._connections):
                if conn.transport is not None:
                    conn.transport.abort()

    def shut_down(self) -> None:
        """Stop accepting, drain in-flight requests, close the app's
        underlying object.  Idempotent and callable from any thread."""
        if self._shut:
            return
        self._shut = True
        self.draining = True
        if self._started.is_set() and not self.loop.is_closed():
            try:
                self.loop.call_soon_threadsafe(
                    lambda: self._stop_event.set()
                    if self._stop_event is not None else None
                )
            except RuntimeError:
                pass
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=15)
        elif not self._started.is_set():
            # Loop never ran (shut down before serve): just release.
            self._socket.close()
            if not self.loop.is_closed():
                self.loop.close()
        for pool in self._pools.values():
            pool.shutdown(wait=False)
        self.app.close()

    # -- request execution --------------------------------------------

    async def dispatch(self, method: str, target: str,
                       body: bytes) -> Response:
        """Admission-check one parsed request, then run the app handler
        on the right worker pool.  Runs on the event loop."""
        app = self.app
        endpoint, _query = app.split_target(target)
        route_class = app.route_class(endpoint)
        admission = self.admission
        if not admission.try_admit(route_class):
            response = error_response(admission.overloaded_error())
            app.observe(
                endpoint.lstrip("/") or "root", response.status, app._now()
            )
            return response
        try:
            return await self.loop.run_in_executor(
                self._pools[route_class],
                app.handle, method, target, (lambda: body),
            )
        finally:
            admission.release(route_class)


def serve_directory(
    directory,
    host: str = "127.0.0.1",
    port: int = 0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    admission: Optional[AdmissionConfig] = None,
) -> AsyncHTTPServer:
    """Bind a server for a :class:`FormDirectory` (port 0 picks an
    ephemeral port); shutting it down closes the directory."""
    return AsyncHTTPServer(
        DirectoryApp(directory),
        (host, port),
        max_request_bytes=max_request_bytes,
        admission=admission,
    )


__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AsyncHTTPServer",
    "MAX_HEADER_BYTES",
    "PIPELINE_HIGH_WATER",
    "serve_directory",
]
