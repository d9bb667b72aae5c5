"""The JSON application layer, separate from the socket layer.

Every HTTP face of the directory (single node, shard, replica, router)
is a table of routes over some serving object.  This module factors the
*application* out of the *transport*: a :class:`BaseApp` maps one parsed
request — ``(method, target, body)`` — to a :class:`Response`, with one
structured-error mapping, request metrics, and JSON encoding.

Endpoints of the single-node directory (all JSON unless noted):

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

Every response is either ``{"ok": true, ...}`` or a structured error
``{"ok": false, "error": {"code", "message"}}`` with a matching HTTP
status; bodies above ``max_request_bytes`` are rejected with 413 before
being read.

One server drives every app: :class:`repro.service.aio.AsyncHTTPServer`,
an ``asyncio.Protocol`` front end with admission control and load
shedding.  It adds only framing headers around :meth:`BaseApp.handle`'s
bytes, so calling the app in-process answers exactly what the server
sends — ``tests/test_service_aio.py`` pins that across every endpoint.

Handlers *return* :class:`Response` objects; they never touch a socket.
Connection concerns (framing, ``Connection`` header handling, write
errors) stay in the server; the Content-Length checks (411/400/413)
live here as :func:`check_content_length`.
"""

import json
import time
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.form_page import RawFormPage
from repro.resilience.faults import FaultError
from repro.resilience.journal import StaleEpochError

#: Default cap on request bodies (form pages are HTML documents; 2 MiB
#: holds anything reasonable and stops accidental uploads).
DEFAULT_MAX_REQUEST_BYTES = 2 * 1024 * 1024

#: ``Retry-After`` hint (seconds) sent with 503 while the directory is
#: recovering (journal replay / drift repair in flight).
RECOVERING_RETRY_AFTER = 1

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ApiError(Exception):
    """An error with a wire representation.  ``retry_after`` (seconds)
    adds a ``Retry-After`` header — back-pressure errors (429/503) use
    it.  ``extra`` merges additional machine-readable keys into the
    wire ``error`` object (e.g. the fencing 409 carries the rejecting
    node's current ``epoch`` so clients can re-resolve the leader)."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[int] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.extra = dict(extra) if extra else {}


class Response:
    """One finished response: status, body bytes, and headers the
    server must write (it adds its own framing headers on top)."""

    __slots__ = ("status", "body", "content_type", "extra_headers")

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_CONTENT_TYPE,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.extra_headers = tuple(extra_headers)


def json_bytes(payload: dict) -> bytes:
    """The one JSON serializer every app response goes through."""
    return json.dumps(payload).encode("utf-8")


def json_response(
    status: int,
    payload: dict,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> Response:
    return Response(status, json_bytes(payload), extra_headers=extra_headers)


def error_response(error: ApiError) -> Response:
    headers: Tuple[Tuple[str, str], ...] = ()
    if error.retry_after is not None:
        headers = (("Retry-After", str(error.retry_after)),)
    payload = {"code": error.code, "message": error.message}
    payload.update(error.extra)
    return json_response(
        error.status,
        {"ok": False, "error": payload},
        extra_headers=headers,
    )


def check_content_length(
    length_header: Optional[str], max_request_bytes: int
) -> int:
    """Validate a request's Content-Length before any body byte is
    read, so 411/400/413 carry the usual structured bodies."""
    if length_header is None:
        raise ApiError(411, "length_required", "Content-Length required")
    try:
        length = int(length_header)
    except ValueError:
        raise ApiError(400, "bad_request", "malformed Content-Length")
    if length < 0:
        raise ApiError(400, "bad_request", "malformed Content-Length")
    if length > max_request_bytes:
        raise ApiError(
            413, "payload_too_large",
            f"request body {length} bytes exceeds limit "
            f"{max_request_bytes}",
        )
    return length


def parse_json_body(data: bytes) -> dict:
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, "bad_request", f"invalid JSON body: {exc}")
    if not isinstance(body, dict):
        raise ApiError(400, "bad_request", "body must be a JSON object")
    return body


def _raw_page_from_body(body: dict) -> RawFormPage:
    url = body.get("url")
    html = body.get("html")
    if not isinstance(url, str) or not url:
        raise ApiError(400, "bad_request", "'url' must be a non-empty string")
    if not isinstance(html, str) or not html:
        raise ApiError(400, "bad_request", "'html' must be a non-empty string")
    backlinks = body.get("backlinks", [])
    anchor_texts = body.get("anchor_texts", [])
    if not isinstance(backlinks, list) or not all(
        isinstance(item, str) for item in backlinks
    ):
        raise ApiError(400, "bad_request", "'backlinks' must be a string list")
    if not isinstance(anchor_texts, list) or not all(
        isinstance(item, str) for item in anchor_texts
    ):
        raise ApiError(
            400, "bad_request", "'anchor_texts' must be a string list"
        )
    return RawFormPage(
        url=url,
        html=html,
        backlinks=list(backlinks),
        label=None,
        anchor_texts=list(anchor_texts),
    )


class BaseApp:
    """Route tables + dispatch + error mapping, transport-free.

    Subclasses provide ``get_routes()`` / ``post_routes()`` (endpoint →
    handler), a ``metrics_registry`` property, and a ``server_version``
    string for the server's ``Server`` header.  GET handlers take the
    parsed query dict; POST handlers take the parsed JSON body dict.
    Both return a :class:`Response`.
    """

    server_version = "repro-app/1.0"

    #: Routes that must stay answerable while the heavy routes saturate
    #: — the server gives them their own concurrency budget.
    CHEAP_ROUTES = frozenset({"/healthz", "/metrics"})

    # -- to be provided by subclasses ---------------------------------

    @property
    def metrics_registry(self):
        raise NotImplementedError

    def get_routes(self) -> Dict[str, Callable]:
        return {}

    def post_routes(self) -> Dict[str, Callable]:
        return {}

    def close(self) -> None:
        """Release the served object; the server calls this once on
        shut-down."""

    # -- dispatch -----------------------------------------------------

    @staticmethod
    def split_target(target: str) -> Tuple[str, str]:
        """``target`` ("/search?q=x") → (normalized endpoint, query)."""
        split = urlsplit(target)
        return split.path.rstrip("/") or "/", split.query

    def route_class(self, endpoint: str) -> str:
        """``"cheap"`` (health/metrics) or ``"heavy"`` (everything
        else) — the admission-control budget this endpoint draws from."""
        return "cheap" if endpoint in self.CHEAP_ROUTES else "heavy"

    @staticmethod
    def _now() -> float:
        return time.perf_counter()

    def observe(self, endpoint: str, status: int, started: float) -> None:
        metrics = self.metrics_registry
        elapsed = self._now() - started
        metrics.histogram(
            "http_request_seconds", "Request latency", endpoint=endpoint
        ).observe(elapsed)
        metrics.counter(
            "http_requests_total", "Requests served",
            endpoint=endpoint, status=str(status),
        ).inc()

    def handle(
        self,
        method: str,
        target: str,
        read_body: Optional[Callable[[], bytes]] = None,
    ) -> Response:
        """One request → one :class:`Response`.  Never raises: every
        failure maps to the structured-error body
        (``{"ok": false, "error": {code, message}}``).

        ``read_body`` supplies the raw body bytes for POSTs; it is only
        called once a POST route matched.
        """
        started = self._now()
        endpoint, query_string = self.split_target(target)
        try:
            if method == "GET":
                handler = self.get_routes().get(endpoint)
                if handler is None:
                    raise ApiError(
                        404, "not_found", f"no such endpoint: {endpoint!r}"
                    )
                response = handler(parse_qs(query_string))
            elif method == "POST":
                handler = self.post_routes().get(endpoint)
                if handler is None:
                    raise ApiError(
                        404, "not_found", f"no such endpoint: {endpoint!r}"
                    )
                data = read_body() if read_body is not None else b""
                response = handler(parse_json_body(data))
            else:
                raise ApiError(
                    405, "method_not_allowed",
                    f"unsupported method {method!r}",
                )
        except ApiError as error:
            response = error_response(error)
        except StaleEpochError as exc:
            # The fencing rejection: this node's epoch is stale (it was
            # deposed, or a write raced a promotion).  409 rather than
            # 5xx — the node is healthy, the *request* went to the wrong
            # leader; the structured body carries the current epoch so
            # clients re-resolve instead of blind-retrying.
            response = error_response(
                ApiError(
                    409, "stale_epoch", str(exc),
                    extra={"epoch": exc.epoch, "offered": exc.offered},
                )
            )
        except TimeoutError as exc:
            response = error_response(ApiError(504, "timeout", str(exc)))
        except FaultError as exc:
            # An I/O seam failed (journal append, snapshot save, lease
            # store): the request failed but the directory is intact —
            # tell clients to back off.
            response = error_response(
                ApiError(503, "upstream_unavailable",
                         f"{type(exc).__name__}: {exc}")
            )
        except Exception as exc:  # structured 500, never a stack trace
            response = error_response(
                ApiError(500, "internal", f"{type(exc).__name__}: {exc}")
            )
        self.observe(endpoint.lstrip("/") or "root", response.status, started)
        return response

    # -- shared parameter helpers -------------------------------------

    @staticmethod
    def _int_param(query: dict, name: str, default: int,
                   low: int, high: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            value = int(values[0])
        except ValueError:
            raise ApiError(400, "bad_request", f"'{name}' must be an integer")
        if not low <= value <= high:
            raise ApiError(
                400, "bad_request", f"'{name}' must be in [{low}, {high}]"
            )
        return value


class DirectoryApp(BaseApp):
    """The single-node form-directory API over a
    :class:`~repro.service.directory.FormDirectory`."""

    server_version = "repro-directory/1.0"

    def __init__(self, directory) -> None:
        self._directory = directory

    @property
    def directory(self):
        return self._directory

    @property
    def metrics_registry(self):
        return self.directory.metrics

    def close(self) -> None:
        self.directory.close()

    def get_routes(self) -> Dict[str, Callable]:
        return {
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
            "/clusters": self._get_clusters,
            "/search": self._get_search,
        }

    def post_routes(self) -> Dict[str, Callable]:
        return {
            "/classify": self._post_classify,
            "/add": self._post_add,
            "/remove": self._post_remove,
        }

    # -- GET handlers -------------------------------------------------

    def _get_healthz(self, query: dict) -> Response:
        # Grade first, lock-free: during recovery (journal replay, a
        # drift repair holding the write lock) ``stats()`` would block
        # on the read lock — exactly when health probes must not hang.
        state = self.directory.health_state()
        if state == "recovering":
            return json_response(
                503,
                {"ok": False, "status": state,
                 "retry_after_seconds": RECOVERING_RETRY_AFTER},
                extra_headers=(
                    ("Retry-After", str(RECOVERING_RETRY_AFTER)),
                ),
            )
        return json_response(
            200, {"ok": True, "status": state, **self.directory.stats()}
        )

    def _get_metrics(self, query: dict) -> Response:
        return Response(
            200,
            self.metrics_registry.render().encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )

    def _get_clusters(self, query: dict) -> Response:
        max_urls = self._int_param(query, "max_urls", 5, low=0, high=100)
        return json_response(
            200,
            {"ok": True,
             "clusters": self.directory.clusters_summary(max_urls=max_urls)},
        )

    def _search_params(self, query: dict) -> Tuple[str, int, str]:
        terms = query.get("q", [""])[0]
        if not terms.strip():
            raise ApiError(400, "bad_request", "missing query parameter 'q'")
        n = self._int_param(query, "n", 3, low=1, high=100)
        scope = query.get("scope", ["clusters"])[0]
        if scope not in ("clusters", "pages"):
            raise ApiError(
                400, "bad_request", "'scope' must be 'clusters' or 'pages'"
            )
        return terms, n, scope

    def _get_search(self, query: dict) -> Response:
        terms, n, scope = self._search_params(query)
        if scope == "clusters":
            hits = self.directory.search(terms, n=n)
        else:
            hits = self.directory.search_pages(terms, n=n)
        return json_response(
            200, {"ok": True, "query": terms, "scope": scope, "hits": hits}
        )

    # -- POST handlers ------------------------------------------------

    def _post_classify(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        outcome = self.directory.classify(raw)
        return json_response(
            200,
            {
                "ok": True,
                "url": outcome.url,
                "cluster": outcome.cluster,
                "similarity": outcome.similarity,
                "top_terms": outcome.top_terms,
                "cached": outcome.cached,
            },
        )

    def _post_add(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        cluster, size = self.directory.add(raw)
        return json_response(
            200,
            {"ok": True, "url": raw.url, "cluster": cluster,
             "cluster_size": size},
        )

    def _post_remove(self, body: dict) -> Response:
        url = body.get("url")
        if not isinstance(url, str) or not url:
            raise ApiError(400, "bad_request",
                           "'url' must be a non-empty string")
        removed = self.directory.remove(url)
        return json_response(
            200, {"ok": True, "url": url, "removed": removed}
        )


__all__ = [
    "ApiError",
    "BaseApp",
    "DEFAULT_MAX_REQUEST_BYTES",
    "DirectoryApp",
    "JSON_CONTENT_TYPE",
    "METRICS_CONTENT_TYPE",
    "RECOVERING_RETRY_AFTER",
    "Response",
    "check_content_length",
    "error_response",
    "json_bytes",
    "json_response",
    "parse_json_body",
]
