"""End-to-end HTTP API tests over a real socket.

The :class:`~repro.service.aio.AsyncHTTPServer` that
:func:`~repro.service.serve_directory` returns is bound to an ephemeral
port and driven with ``urllib`` — the same path a real client takes:
JSON bodies, Content-Length limits, status codes, and the Prometheus
/metrics text.
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.directory import FormDirectory
from repro.service import serve_directory
from repro.service.snapshot import build_snapshot


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


@pytest.fixture()
def server(small_snapshot):
    directory = FormDirectory.from_snapshot(
        small_snapshot, auto_recluster=False
    )
    srv = serve_directory(directory, port=0, max_request_bytes=256 * 1024)
    srv.serve_in_thread()
    try:
        yield srv
    finally:
        srv.shut_down()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30.0) as response:
        body = response.read()
        content_type = response.headers.get("Content-Type", "")
        return response.status, content_type, body


def get_json(base, path):
    status, _, body = get(base, path)
    return status, json.loads(body)


def post_json(base, path, payload):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_page_payload(raw):
    return {
        "url": raw.url,
        "html": raw.html,
        "backlinks": list(raw.backlinks),
        "anchor_texts": list(raw.anchor_texts),
    }


class TestReadEndpoints:
    def test_healthz(self, server):
        status, body = get_json(server.base_url, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["pages"] > 0
        assert body["clusters"] > 0
        assert body["engine"]["backend"]

    def test_clusters(self, server):
        status, body = get_json(server.base_url, "/clusters?max_urls=2")
        assert status == 200
        assert len(body["clusters"]) == SMALL_CONFIG.k
        for entry in body["clusters"]:
            assert len(entry["urls"]) <= 2
            assert entry["top_terms"]

    def test_search(self, server):
        status, body = get_json(server.base_url, "/search?q=flight+airfare")
        assert status == 200
        assert body["hits"]
        assert body["hits"][0]["score"] > 0

    def test_search_requires_query(self, server):
        status, _, body = _get_allowing_error(server.base_url, "/search")
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"

    def test_unknown_endpoint_404(self, server):
        status, _, body = _get_allowing_error(server.base_url, "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_metrics_exposition_format(self, server, small_raw_pages):
        # Generate some traffic first so counters exist.
        post_json(server.base_url, "/classify",
                  raw_page_payload(small_raw_pages[0]))
        status, content_type, body = get(server.base_url, "/metrics")
        assert status == 200
        assert "text/plain" in content_type
        text = body.decode("utf-8")
        assert "# TYPE repro_classify_requests_total counter" in text
        assert "# TYPE repro_directory_pages gauge" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        match = re.search(
            r"^repro_classify_requests_total (\d+)", text, re.MULTILINE
        )
        assert match and int(match.group(1)) >= 1
        # Histogram buckets must be cumulative and end with +Inf == count.
        buckets = re.findall(
            r'repro_ingest_vectorize_seconds_bucket\{le="([^"]+)"\} (\d+)',
            text,
        )
        assert buckets
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1][0] == "+Inf"


def _get_allowing_error(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30.0) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


class TestClassifyEndpoint:
    def test_classify_roundtrip(self, server, small_snapshot,
                                small_raw_pages):
        raw = small_raw_pages[0]
        status, body = post_json(
            server.base_url, "/classify", raw_page_payload(raw)
        )
        assert status == 200
        assert body["ok"] is True
        assert body["url"] == raw.url
        assert body["top_terms"]
        # The served answer matches an offline organizer cold-started
        # from the very same snapshot.
        offline = small_snapshot.to_organizer()
        page = offline.vectorizer.transform_new(raw)
        want = offline.classify_vectorized(page)
        assert (body["cluster"], body["similarity"]) == want
        assert "batch_size" not in body

    def test_classify_caches(self, server, small_raw_pages):
        payload = raw_page_payload(small_raw_pages[1])
        post_json(server.base_url, "/classify", payload)
        status, body = post_json(server.base_url, "/classify", payload)
        assert status == 200
        assert body["cached"] is True

    def test_classify_validates_body(self, server):
        status, body = post_json(server.base_url, "/classify", {"url": "x"})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "html" in body["error"]["message"]

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/classify", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_oversized_body_is_413(self, server):
        payload = {"url": "http://x.example/", "html": "x" * (300 * 1024)}
        status, body = post_json(server.base_url, "/classify", payload)
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"


class TestMutatingEndpoints:
    def test_add_then_remove(self, server, small_raw_pages):
        raw = small_raw_pages[2]
        post_json(server.base_url, "/remove", {"url": raw.url})
        _, before = get_json(server.base_url, "/healthz")
        status, body = post_json(
            server.base_url, "/add", raw_page_payload(raw)
        )
        assert status == 200
        assert body["cluster_size"] >= 1
        _, after = get_json(server.base_url, "/healthz")
        assert after["pages"] == before["pages"] + 1
        status, body = post_json(server.base_url, "/remove", {"url": raw.url})
        assert status == 200 and body["removed"] is True
        status, body = post_json(
            server.base_url, "/remove", {"url": "http://missing.example/"}
        )
        assert status == 200 and body["removed"] is False

    def test_remove_validates_body(self, server):
        status, body = post_json(server.base_url, "/remove", {})
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestConcurrentClients:
    def test_sixteen_concurrent_clients(self, small_snapshot, small_raw_pages):
        """16 concurrent clients over the wire: every answer equals the
        sequential reference, and /metrics counts every request."""
        n_clients = 16
        probes = small_raw_pages[:n_clients]

        with FormDirectory.from_snapshot(
            small_snapshot, cache_size=0, auto_recluster=False,
        ) as reference:
            expected = {}
            for raw in probes:
                outcome = reference.classify(raw)
                expected[raw.url] = (outcome.cluster, outcome.similarity)

        directory = FormDirectory.from_snapshot(
            small_snapshot, cache_size=0, auto_recluster=False,
        )
        server = serve_directory(directory, port=0)
        server.serve_in_thread()
        try:
            base = server.base_url
            barrier = threading.Barrier(n_clients)
            results = {}
            errors = []
            lock = threading.Lock()

            def client(raw):
                try:
                    barrier.wait(timeout=30.0)
                    status, body = post_json(
                        base, "/classify", raw_page_payload(raw)
                    )
                    with lock:
                        results[raw.url] = (status, body)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(raw,)) for raw in probes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors, errors
            assert len(results) == n_clients

            for url, (status, body) in results.items():
                assert status == 200, body
                assert (body["cluster"], body["similarity"]) == \
                    expected[url], url

            _, _, metrics = get(base, "/metrics")
            text = metrics.decode("utf-8")
            requests = int(re.search(
                r"^repro_classify_requests_total (\d+)", text, re.MULTILINE
            ).group(1))
            assert requests == n_clients
            assert "repro_classify_batches_total" not in text
        finally:
            server.shut_down()
