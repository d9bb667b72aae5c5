"""Service benchmark: inline classify throughput under 16 clients.

Not from the paper — this measures the serving layer added on top of
the reproduction: 16 concurrent clients classifying pages of the full
benchmark corpus against a 454-page directory.  Each request scores
inline under one read lock (the Equation-3 centroid scan); the printed
line records requests served and throughput, and docs/PERFORMANCE.md
keeps the reference numbers.
"""

import threading

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot

N_CLIENTS = 16
REQUESTS_PER_CLIENT = 16


@pytest.fixture(scope="module")
def service_setup(context):
    config = CAFCConfig(k=8)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(context.raw_pages)
    snapshot = build_snapshot(result, pipeline.vectorizer, config)
    return snapshot, context.raw_pages


def _hammer(directory, raw_pages):
    """16 threads, each classifying its own slice of the corpus."""
    errors = []

    def client(offset):
        try:
            for step in range(REQUESTS_PER_CLIENT):
                raw = raw_pages[(offset + step * N_CLIENTS) % len(raw_pages)]
                outcome = directory.classify(raw)
                assert outcome.cluster >= 0
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(offset,))
        for offset in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


def test_bench_classify_throughput(benchmark, service_setup):
    snapshot, raw_pages = service_setup
    directory = FormDirectory.from_snapshot(
        snapshot, cache_size=0, auto_recluster=False
    )
    try:
        benchmark.pedantic(
            _hammer, args=(directory, raw_pages), rounds=1, iterations=1
        )
        requests = int(directory._m_requests.value)
        assert requests == N_CLIENTS * REQUESTS_PER_CLIENT
        elapsed = benchmark.stats["mean"]
        print(
            f"\n  inline classify, {N_CLIENTS} clients: {requests} "
            f"requests, {requests / elapsed:,.0f} req/s"
        )
    finally:
        directory.close()
