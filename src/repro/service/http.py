"""The form-directory HTTP API — threaded transport.

Endpoints (all JSON unless noted):

========  ==============  ====================================================
method    path            purpose
========  ==============  ====================================================
POST      ``/classify``   assign a page ``{url, html, backlinks?}`` to its
                          cluster (read-only)
POST      ``/add``        insert (or replace) a source
POST      ``/remove``     drop a source ``{url}``
GET       ``/search``     ``?q=keyword+query&n=3&scope=clusters|pages`` —
                          rank clusters (or managed pages)
GET       ``/clusters``   cluster directory summary
GET       ``/healthz``    liveness + staleness stats
GET       ``/metrics``    Prometheus text format (not JSON)
========  ==============  ====================================================

Request handling lives in the transport-neutral
:class:`repro.service.app.DirectoryApp`; this module is the classic
``ThreadingHTTPServer`` adapter around it (one thread per connection).
The :mod:`repro.service.aio` event-loop transport drives the *same* app
object, so both transports produce byte-identical JSON — pick one with
``serve_directory(..., transport=...)`` or ``repro serve --transport``.

Every response is either ``{"ok": true, ...}`` or a structured error
``{"ok": false, "error": {"code", "message"}}`` with a matching HTTP
status.  Requests are bounded: bodies above ``max_request_bytes`` are
rejected with 413 before being read into memory, and each connection
gets a socket timeout so a stalled client cannot pin a handler thread.
Connections honor ``Connection: close`` request headers, and once
``shut_down()`` has begun every response carries ``Connection: close``
so keep-alive clients aren't left waiting on a half-closed socket.
"""

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.service.app import (
    ApiError,
    BaseApp,
    ClientDisconnected,
    DEFAULT_MAX_REQUEST_BYTES,
    DEFAULT_REQUEST_TIMEOUT,
    DirectoryApp,
    RECOVERING_RETRY_AFTER,
    Response,
    _raw_page_from_body,  # noqa: F401  (re-export: distrib + old imports)
    check_content_length,
    error_response,
)
from repro.service.directory import FormDirectory


class DirectoryRequestHandler(BaseHTTPRequestHandler):
    """Thin adapter: parse one request, hand it to ``server.app``,
    write the :class:`Response` back with keep-alive bookkeeping."""

    protocol_version = "HTTP/1.1"
    # Small JSON responses with Nagle + delayed ACK cost ~40ms per
    # request on keep-alive sockets; asyncio transports set TCP_NODELAY
    # by default, so match it here.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(self.server.request_timeout)

    def log_message(self, format: str, *args) -> None:
        # Access logging is the metrics registry's job; keep stderr for
        # real errors only.
        pass

    def version_string(self) -> str:
        return self.server.app.server_version

    @property
    def app(self) -> BaseApp:
        return self.server.app

    # -- request cycle ------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def _handle(self, method: str) -> None:
        # True while the announced request body has been fully consumed
        # off the socket; if a handler rejects the request before the
        # body was read (411/413), the unread bytes would be parsed as
        # the next request's head — the connection must close instead.
        self._body_consumed = True
        if getattr(self.server, "shutting_down", False):
            # A keep-alive client racing shutdown: answer 503 with
            # Connection: close instead of leaving it waiting on a
            # half-closed socket (the listener is already gone).
            self.close_connection = True
            try:
                self._respond(error_response(ApiError(
                    503, "shutting_down",
                    "server is shutting down; connection closing",
                    retry_after=1,
                )))
            except (BrokenPipeError, ConnectionResetError, socket.timeout,
                    TimeoutError):
                pass
            return
        read_body = self._make_body_reader() if method == "POST" else None
        try:
            response = self.app.handle(method, self.path, read_body)
        except ClientDisconnected:
            self.close_connection = True
            return
        try:
            self._respond(response)
        except (BrokenPipeError, ConnectionResetError, socket.timeout,
                TimeoutError):
            self.close_connection = True

    def _make_body_reader(self):
        length_header = self.headers.get("Content-Length")

        def read_body() -> bytes:
            # Unconsumed until proven otherwise: a 411/413 raised here
            # leaves announced body bytes on the socket, and reusing the
            # connection would parse them as the next request's head.
            self._body_consumed = False
            length = check_content_length(
                length_header, self.server.max_request_bytes
            )
            try:
                data = self.rfile.read(length)
            except (BrokenPipeError, ConnectionResetError, socket.timeout,
                    TimeoutError) as exc:
                raise ClientDisconnected(str(exc)) from exc
            if len(data) < length:
                raise ClientDisconnected("short body read")
            self._body_consumed = True
            return data

        return read_body

    def _respond(self, response: Response) -> None:
        # Close when the client asked for it (parse_request already set
        # close_connection from the request's Connection header), when
        # the server is draining toward shutdown, or when unread body
        # bytes would desynchronize keep-alive framing.
        must_close = (
            self.close_connection
            or getattr(self.server, "shutting_down", False)
            or not self._body_consumed
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.extra_headers:
            self.send_header(name, value)
        if must_close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(response.body)


class DirectoryHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`FormDirectory`."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default accept backlog is 5; a burst of concurrent
    # clients would see kernel connection resets before the server ever
    # accepts them.
    request_queue_size = 128

    def __init__(
        self,
        directory: FormDirectory,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self.directory = directory
        self.app = DirectoryApp(directory, request_timeout=request_timeout)
        self.max_request_bytes = max_request_bytes
        self.request_timeout = request_timeout
        self.shutting_down = False
        super().__init__(address, DirectoryRequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def base_url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread (for tests and embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        thread.start()
        return thread

    def shut_down(self) -> None:
        """Stop serving and release the socket and batch worker.

        Raising ``shutting_down`` first makes every in-flight response
        carry ``Connection: close``, so keep-alive clients learn the
        socket is going away instead of stalling on their next request.
        """
        self.shutting_down = True
        self.shutdown()
        self.server_close()
        self.directory.close()


def serve_directory(
    directory: FormDirectory,
    host: str = "127.0.0.1",
    port: int = 0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    transport: str = "threaded",
    admission: Optional[object] = None,
):
    """Bind a server for ``directory`` (port 0 picks an ephemeral port).

    ``transport`` selects the connection layer: ``"threaded"`` (this
    module, one thread per connection) or ``"asyncio"`` (the
    :mod:`repro.service.aio` event-loop front end with admission
    control).  Both serve the same :class:`DirectoryApp`, so responses
    are byte-identical; ``admission`` (an
    :class:`repro.service.aio.AdmissionConfig`) only applies to the
    asyncio transport.
    """
    if transport == "asyncio":
        from repro.service.aio import serve_directory_async

        return serve_directory_async(
            directory,
            host=host,
            port=port,
            max_request_bytes=max_request_bytes,
            request_timeout=request_timeout,
            admission=admission,
        )
    if transport != "threaded":
        raise ValueError(
            f"unknown transport {transport!r}; pick 'threaded' or 'asyncio'"
        )
    return DirectoryHTTPServer(
        directory,
        (host, port),
        max_request_bytes=max_request_bytes,
        request_timeout=request_timeout,
    )


__all__ = [
    "ApiError",
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_REQUEST_TIMEOUT",
    "RECOVERING_RETRY_AFTER",
    "DirectoryHTTPServer",
    "DirectoryRequestHandler",
    "serve_directory",
]
