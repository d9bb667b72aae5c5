"""The HTTP server: parity, keep-alive, admission, shedding.

Four suites over real sockets:

* **parity** — every endpoint (success and error paths, including 413
  and the 503 "recovering" state) must answer with the status, content
  type and body bytes that in-process ``app.handle`` returns for the
  same request;
* **connection behavior** — keep-alive reuse, raw-socket pipelining,
  ``Connection: close`` echo, shutdown-in-progress close headers;
* **admission control** — saturating the heavy in-flight budget sheds
  deterministically with structured ``429 + Retry-After`` (no raw
  connection resets) while the cheap routes keep answering;
* **slowloris** — a stalled-header client is reaped by the frame
  timeout with a 408 and the server stays responsive.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.aio import (
    AdmissionConfig,
    AsyncHTTPServer,
    serve_directory,
)
from repro.service.app import (
    ApiError,
    BaseApp,
    Response,
    check_content_length,
    json_response,
)
from repro.service.directory import FormDirectory
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import build_snapshot

SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


def _directory(small_snapshot, **kwargs):
    kwargs.setdefault("cache_size", 0)
    kwargs.setdefault("auto_recluster", False)
    return FormDirectory.from_snapshot(small_snapshot, **kwargs)


def get_raw(base, path, timeout=30.0):
    """(status, headers, body) — errors included, never raises."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def post_raw(base, path, payload, timeout=30.0, raw_bytes=None):
    data = (json.dumps(payload).encode("utf-8")
            if raw_bytes is None else raw_bytes)
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def raw_page_payload(raw):
    return {
        "url": raw.url,
        "html": raw.html,
        "backlinks": list(raw.backlinks),
        "anchor_texts": list(raw.anchor_texts),
    }


# ---------------------------------------------------------------------------
# Byte parity: the server against in-process app.handle.
# ---------------------------------------------------------------------------


def wire(result):
    """(status, content type, Retry-After, body) of an HTTP answer."""
    status, headers, body = result
    return (status, headers.get("Content-Type"),
            headers.get("Retry-After"), body)


def in_process(app, method, target, data=b""):
    """The same four fields straight from ``app.handle`` — no socket."""
    response = app.handle(method, target, lambda: data)
    extra = dict(response.extra_headers)
    return (response.status, response.content_type,
            extra.get("Retry-After"), response.body)


def oversized_post(port):
    """POST an announced 3 MiB body, head only: the 413 is decided from
    Content-Length, so the client never races the server's close."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.sendall(
        b"POST /classify HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 3145728\r\n\r\n"
    )
    sock.settimeout(10)
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


class TestTransportParity:
    """The server adds framing and nothing else: for one request
    sequence over ONE directory, status, content type, Retry-After and
    body bytes equal what ``app.handle`` returns in-process."""

    @pytest.fixture()
    def served(self, small_snapshot, monkeypatch):
        directory = _directory(small_snapshot)
        # /healthz reports uptime_seconds from time.time(); freeze it so
        # the two answers can't disagree by microseconds.
        frozen = time.time()
        monkeypatch.setattr(time, "time", lambda: frozen)
        server = serve_directory(directory)
        server.serve_in_thread()
        try:
            yield server
        finally:
            server.shut_down()

    # Sequential identical requests: read endpoints are pure, so the
    # server and the in-process call see the same directory state.
    GET_TARGETS = [
        "/clusters",
        "/clusters?max_urls=2",
        "/clusters?max_urls=foo",        # 400
        "/search?q=cheap+flights&n=3",
        "/search?q=hotel+rooms&scope=pages",
        "/search?q=",                    # 400
        "/search?q=x&scope=bogus",       # 400
        "/search?q=x&n=0",               # 400
        "/nope",                         # 404
        "/healthz",
    ]

    def test_get_endpoints_byte_identical(self, served):
        for target in self.GET_TARGETS:
            got = wire(get_raw(served.base_url, target))
            assert got == in_process(served.app, "GET", target), target

    def test_post_endpoints_byte_identical(self, served, small_raw_pages):
        page = small_raw_pages[0]
        cases = [
            ("/classify", raw_page_payload(page), None),
            ("/classify", {"url": "http://x/", "html": ""}, None),   # 400
            ("/classify", {}, None),                                 # 400
            ("/classify", None, b"not json"),                        # 400
            ("/remove", {"url": "http://missing.example/"}, None),
            ("/nope", {}, None),                                     # 404
        ]
        for path, payload, raw_bytes in cases:
            data = (json.dumps(payload).encode("utf-8")
                    if raw_bytes is None else raw_bytes)
            got = wire(post_raw(served.base_url, path, payload,
                                raw_bytes=raw_bytes))
            assert got == in_process(served.app, "POST", path, data), (
                path, payload)

    def test_add_remove_round_trip_identical(self, served, small_raw_pages):
        # Mutations: run the same add/remove cycle over the socket and
        # then in-process; the directory returns to its prior state
        # between cycles, so the answers must match byte for byte.
        page = raw_page_payload(small_raw_pages[1])
        page["url"] = "http://parity.example/new-source"
        add_body = json.dumps(page).encode("utf-8")
        remove_body = json.dumps({"url": page["url"]}).encode("utf-8")
        over_wire = (
            wire(post_raw(served.base_url, "/add", page)),
            wire(post_raw(served.base_url, "/remove", {"url": page["url"]})),
        )
        direct = (
            in_process(served.app, "POST", "/add", add_body),
            in_process(served.app, "POST", "/remove", remove_body),
        )
        assert over_wire == direct
        assert over_wire[0][0] == over_wire[1][0] == 200

    def test_payload_too_large_identical(self, served):
        def read_oversized() -> bytes:
            # The app-side twin of the server's framing check.
            check_content_length("3145728", served.max_request_bytes)
            return b""

        got = wire(oversized_post(served.port))
        response = served.app.handle("POST", "/classify", read_oversized)
        assert got[0] == response.status == 413
        assert got[1] == response.content_type
        assert got[3] == response.body

    def test_metrics_same_families(self, served):
        # /metrics can't be byte-pinned (each scrape mutates request
        # histograms), but the server and app.handle expose the same
        # content type and metric families.
        get_raw(served.base_url, "/healthz")  # warm the request families
        status, headers, body = get_raw(served.base_url, "/metrics")
        response = served.app.handle("GET", "/metrics")
        assert status == response.status == 200
        assert headers["Content-Type"] == response.content_type

        def families(text):
            return {line.split()[2] for line in text.decode().splitlines()
                    if line.startswith("# TYPE")}

        assert families(body) == families(response.body)

    def test_healthz_recovering_parity(self, small_snapshot, monkeypatch):
        directory = _directory(small_snapshot)
        frozen = time.time()
        monkeypatch.setattr(time, "time", lambda: frozen)
        monkeypatch.setattr(
            type(directory), "health_state", lambda self: "recovering"
        )
        server = serve_directory(directory)
        server.serve_in_thread()
        try:
            got = wire(get_raw(server.base_url, "/healthz"))
            assert got == in_process(server.app, "GET", "/healthz")
            assert got[0] == 503 and got[2] == "1"
        finally:
            server.shut_down()


# ---------------------------------------------------------------------------
# Connection behavior: keep-alive, pipelining, Connection: close.
# ---------------------------------------------------------------------------


class TestConnections:
    @pytest.fixture()
    def server(self, small_snapshot):
        srv = serve_directory(_directory(small_snapshot))
        srv.serve_in_thread()
        try:
            yield srv
        finally:
            srv.shut_down()

    def test_keep_alive_reuse(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        for _ in range(5):
            conn.request("GET", "/clusters")
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 200
            assert json.loads(body)["ok"] is True
            assert resp.getheader("Connection") == "keep-alive"
        # Five requests, one socket.
        assert server.admission.connections_total == 1
        conn.close()

    def test_pipelined_requests_answered_in_order(self, server):
        # Two GETs written back-to-back before reading anything: the
        # drain task must answer both, in order, on one socket.
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(
            b"GET /clusters?max_urls=0 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /search?q=cheap+flights HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        sock.settimeout(10)
        data = b""
        while data.count(b"HTTP/1.1 200") < 2:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed early: {data[:200]!r}"
            data += chunk
            if len(data) > 10_000_000:  # pragma: no cover
                raise AssertionError("runaway response")
        first = data.index(b'"clusters"')
        second = data.index(b'"query": "cheap flights"')
        assert first < second, "pipelined responses out of order"
        sock.close()

    def test_connection_close_honored(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("GET", "/clusters", headers={"Connection": "close"})
        resp = conn.getresponse()
        resp.read()
        assert resp.getheader("Connection") == "close"
        assert resp.will_close
        conn.close()

    def test_draining_server_sends_close(self, server):
        import http.client

        server.draining = True
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("GET", "/clusters")
        resp = conn.getresponse()
        resp.read()
        assert resp.getheader("Connection") == "close"
        server.draining = False
        conn.close()

    def test_malformed_request_line_structured_400(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(b"BOGUS\r\n\r\n")
        sock.settimeout(10)
        data = b""
        while b"\r\n\r\n" not in data or not data.endswith(b"}"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b'"bad_request"' in data
        sock.close()

    def test_http10_closes_by_default(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(b"GET /clusters HTTP/1.0\r\nHost: x\r\n\r\n")
        sock.settimeout(10)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        assert b"Connection: close" in data
        sock.close()


# ---------------------------------------------------------------------------
# Admission control and load shedding.
# ---------------------------------------------------------------------------


class _BlockingApp(BaseApp):
    """A stub app whose /slow handler blocks on an event — makes the
    hammer test deterministic: admitted requests park, the rest shed."""

    server_version = "blocking-app/1.0"

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.metrics = MetricsRegistry()

    @property
    def metrics_registry(self):
        return self.metrics

    def get_routes(self):
        return {
            "/slow": self._get_slow,
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
        }

    def _get_metrics(self, query: dict) -> Response:
        from repro.service.app import METRICS_CONTENT_TYPE

        return Response(
            200, self.metrics.render().encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )

    def _get_slow(self, query: dict) -> Response:
        self.entered.release()
        if not self.release.wait(timeout=30):
            raise ApiError(500, "internal", "hammer test never released")
        return json_response(200, {"ok": True, "slow": True})

    def _get_healthz(self, query: dict) -> Response:
        return json_response(200, {"ok": True, "status": "ok"})


class TestAdmissionControl:
    @pytest.fixture()
    def stack(self):
        app = _BlockingApp()
        config = AdmissionConfig(
            max_inflight=4, cheap_inflight=4,
            heavy_workers=4, cheap_workers=2,
            header_timeout=30.0, idle_timeout=60.0,
        )
        server = AsyncHTTPServer(app, admission=config)
        server.serve_in_thread()
        try:
            yield app, server
        finally:
            app.release.set()
            server.shut_down()

    def test_shedding_is_structured_429(self, stack):
        app, server = stack
        base = server.base_url
        n_extra = 12
        statuses = []
        bodies = []
        headers = []
        lock = threading.Lock()
        errors = []

        def fire():
            try:
                status, hdrs, body = get_raw(base, "/slow", timeout=60)
                with lock:
                    statuses.append(status)
                    bodies.append(body)
                    headers.append(hdrs)
            except Exception as exc:  # a raw reset would land here
                with lock:
                    errors.append(exc)

        # Fill the budget: 4 admitted requests park inside the handler.
        fillers = [threading.Thread(target=fire) for _ in range(4)]
        for t in fillers:
            t.start()
        for _ in range(4):
            assert app.entered.acquire(timeout=10), "filler not admitted"

        # Everything beyond the budget must shed, deterministically.
        extra = [threading.Thread(target=fire) for _ in range(n_extra)]
        for t in extra:
            t.start()
        deadline = time.time() + 10
        while True:
            with lock:
                shed = sum(1 for s in statuses if s == 429)
            if shed >= n_extra:
                break
            assert time.time() < deadline, (statuses, errors)
            time.sleep(0.01)

        # Cheap routes still answer while the heavy budget is saturated.
        status, _, body = get_raw(base, "/healthz", timeout=10)
        assert status == 200 and json.loads(body)["ok"] is True

        # Release: the four admitted requests finish with 200.
        app.release.set()
        for t in fillers + extra:
            t.join(timeout=30)
        assert not errors, f"raw connection errors during shedding: {errors}"
        assert sorted(statuses).count(200) == 4
        assert sorted(statuses).count(429) == n_extra

        # Every shed response was structured with Retry-After.
        shed_bodies = [body for status, body in
                       zip(statuses, bodies) if status == 429]
        for body in shed_bodies:
            payload = json.loads(body)
            assert payload["error"]["code"] == "overloaded"
        shed_headers = [hdrs for status, hdrs in
                        zip(statuses, headers) if status == 429]
        for hdrs in shed_headers:
            assert hdrs.get("Retry-After") == "1"

        assert server.admission.shed["heavy"] == n_extra

    def test_shed_counter_on_metrics(self, stack):
        app, server = stack
        base = server.base_url
        # Saturate, then confirm the gauge is scrapeable live.
        holders = []

        def hold():
            get_raw(base, "/slow", timeout=60)

        for _ in range(4):
            t = threading.Thread(target=hold)
            t.start()
            holders.append(t)
        for _ in range(4):
            assert app.entered.acquire(timeout=10)
        status, _, _ = get_raw(base, "/slow", timeout=10)
        assert status == 429
        _, _, metrics = get_raw(base, "/metrics", timeout=10)
        text = metrics.decode()
        assert 'repro_server_requests_shed_total{route="heavy"} 1' in text
        assert 'repro_server_inflight_requests{route="heavy"} 4' in text
        app.release.set()
        for t in holders:
            t.join(timeout=30)

    def test_connection_cap_sheds_cleanly(self):
        app = _BlockingApp()
        app.release.set()
        config = AdmissionConfig(max_connections=2)
        server = AsyncHTTPServer(app, admission=config)
        server.serve_in_thread()
        try:
            import http.client

            keep = []
            for _ in range(2):
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                keep.append(conn)
            # The third connection is over the cap: structured 429 and a
            # clean close — not a reset.
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 429
            assert json.loads(body)["error"]["code"] == "overloaded"
            assert resp.getheader("Connection") == "close"
            conn.close()
            for conn in keep:
                conn.close()
        finally:
            server.shut_down()

    def test_hammer_directory_classifies_shed_not_reset(
        self, small_snapshot, small_raw_pages
    ):
        """The real directory under a write-lock stall: admitted
        classifies block on the read lock, everything else sheds 429,
        zero raw resets, and all admitted requests finish once the
        writer releases."""
        directory = _directory(small_snapshot)
        config = AdmissionConfig(max_inflight=3, heavy_workers=3)
        server = serve_directory(directory, admission=config)
        server.serve_in_thread()
        base = server.base_url
        payload = raw_page_payload(small_raw_pages[0])
        results, errors = [], []
        lock = threading.Lock()

        def classify():
            try:
                result = post_raw(base, "/classify", payload, timeout=60)
                with lock:
                    results.append(result)
            except Exception as exc:
                with lock:
                    errors.append(exc)

        try:
            with directory._rw.write_locked():
                threads = [threading.Thread(target=classify)
                           for _ in range(10)]
                for t in threads:
                    t.start()
                # Wait until every request has been answered-or-parked:
                # 3 admitted (blocked on the read lock), 7 shed.
                deadline = time.time() + 15
                while True:
                    with lock:
                        if len(results) >= 7:
                            break
                    assert time.time() < deadline, results
                    time.sleep(0.02)
                # /metrics (lock-free) still answers under the stall.
                status, _, _ = get_raw(base, "/metrics", timeout=10)
                assert status == 200
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            statuses = sorted(status for status, _, _ in results)
            assert statuses.count(429) == 7
            assert statuses.count(200) == 3
            for status, headers, body in results:
                if status == 429:
                    assert headers.get("Retry-After") == "1"
                    assert json.loads(body)["error"]["code"] == "overloaded"
        finally:
            server.shut_down()


# ---------------------------------------------------------------------------
# Slowloris / idle reaping.
# ---------------------------------------------------------------------------


class TestSlowloris:
    def test_stalled_header_client_reaped_with_408(self, small_snapshot):
        directory = _directory(small_snapshot)
        config = AdmissionConfig(header_timeout=0.4, idle_timeout=30.0)
        server = serve_directory(directory, admission=config)
        server.serve_in_thread()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port))
            # Dribble a partial request head and stall forever.
            sock.sendall(b"GET /clusters HTT")
            sock.settimeout(10)
            data = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except socket.timeout:  # pragma: no cover
                    raise AssertionError("slowloris client never reaped")
                if not chunk:
                    break
                data += chunk
            assert b"408" in data.split(b"\r\n", 1)[0], data[:200]
            assert b'"request_timeout"' in data
            sock.close()
            # The server is still healthy for well-behaved clients.
            status, _, body = get_raw(server.base_url, "/clusters",
                                      timeout=10)
            assert status == 200 and json.loads(body)["ok"] is True
        finally:
            server.shut_down()

    def test_slow_byte_dribble_does_not_reset_deadline(self, small_snapshot):
        # One byte per 100 ms would evade a per-byte timer; the frame
        # deadline is measured from the FIRST byte, so it still reaps.
        directory = _directory(small_snapshot)
        config = AdmissionConfig(header_timeout=0.5, idle_timeout=30.0)
        server = serve_directory(directory, admission=config)
        server.serve_in_thread()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.settimeout(0.1)
            started = time.monotonic()
            reaped = False
            for ch in b"GET /clusters HTTP/1.1\r\nHost: x":
                try:
                    sock.sendall(bytes([ch]))
                except OSError:
                    reaped = True
                    break
                try:
                    if sock.recv(1024) == b"":
                        reaped = True
                        break
                    reaped = True  # got the 408 bytes
                    break
                except socket.timeout:
                    pass
                if time.monotonic() - started > 10:  # pragma: no cover
                    break
            assert reaped, "dribbling client was never reaped"
            assert time.monotonic() - started < 8
            sock.close()
        finally:
            server.shut_down()

    def test_idle_keep_alive_connection_reaped(self, small_snapshot):
        directory = _directory(small_snapshot)
        config = AdmissionConfig(header_timeout=5.0, idle_timeout=0.4)
        server = serve_directory(directory, admission=config)
        server.serve_in_thread()
        try:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(b"GET /clusters HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.settimeout(10)
            data = b""
            # Read the response, then the idle reaper should close us.
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            assert b"200" in data.split(b"\r\n", 1)[0]
            assert server.admission.connections_open == 0
            sock.close()
        finally:
            server.shut_down()


# ---------------------------------------------------------------------------
# Lifecycle.
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_shut_down_idempotent_and_closes_directory(self, small_snapshot):
        directory = _directory(small_snapshot)
        server = serve_directory(directory)
        server.serve_in_thread()
        status, _, _ = get_raw(server.base_url, "/healthz")
        assert status == 200
        server.shut_down()
        server.shut_down()  # idempotent
        assert directory._closed

    def test_shut_down_before_serve(self, small_snapshot):
        directory = _directory(small_snapshot)
        server = serve_directory(directory)
        port = server.port
        assert port > 0
        server.shut_down()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1)

    def test_port_available_immediately(self, small_snapshot):
        directory = _directory(small_snapshot)
        server = serve_directory(directory)
        assert server.port > 0
        assert server.base_url.startswith("http://127.0.0.1:")
        server.shut_down()
