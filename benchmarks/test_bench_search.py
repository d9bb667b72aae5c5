"""Search benchmark: the directory's indexed search vs the oracle scan.

Serves one snapshot and measures ``search`` (cluster scope) and
``search_pages`` — which always rank through the posting lists —
against the reference full scans of ``tests/oracle.py`` over the same
live organizer, at growing cluster counts (k = 8, 32, 128 over the
454-page corpus) and growing page counts (replicated corpora), cold and
warm.  Every timed configuration is parity-checked first: the indexed
answers must be bit-identical — ids, scores, order — to the scan before
its timing is allowed into the table.  The timed scan reuses combined
vectors derived once per configuration, as the directory caches its
own per generation.

Records ``BENCH_search.json`` at the repo root (the numbers quoted in
docs/PERFORMANCE.md).  The acceptance claim is the large end: at k=128
clusters and at the replicated page scale the indexed path must be at
least 1.5x faster warm.  The small end is reported as measured.

Run from the repo root (``make bench-search``) so ``tests.oracle``
imports.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.webgen.corpus import generate_benchmark
from tests.oracle import cluster_rows, page_rows, scan_clusters, scan_pages

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_search.json"
REQUIRED_SPEEDUP = 1.5
CLUSTER_COUNTS = (8, 32, 128)
PAGE_REPLICAS = (1, 2)  # extra corpus copies appended at the page scale step

QUERIES = (
    "flight airfare ticket",
    "book novel author",
    "job career salary engineer",
    "movie theater actor",
    "hotel room reservation",
    "car rental pickup",
)
TOP_N = (1, 5, 25)


@pytest.fixture(scope="module")
def raw_pages():
    return generate_benchmark(seed=42).raw_pages()


def build_directory(raw_pages, k):
    """A served snapshot of the corpus organized into ``k`` clusters."""
    pipeline = CAFCPipeline(CAFCConfig(k=k))
    snapshot = build_snapshot(
        pipeline.organize(raw_pages), pipeline.vectorizer, pipeline.config
    )
    return FormDirectory.from_snapshot(snapshot, auto_recluster=False)


def assert_parity(directory):
    organizer = directory.organizer
    for query in QUERIES:
        for n in TOP_N:
            assert directory.search(query, n=n) == \
                scan_clusters(organizer, query, n), (query, n)
            assert directory.search_pages(query, n=n) == \
                scan_pages(organizer, query, n), (query, n)


def timed(fn, rounds=5, inner=20):
    """(cold, warm): first-call wall clock, then best-of repeats."""
    start = time.perf_counter()
    fn()
    cold = time.perf_counter() - start
    warm = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        warm = min(warm, (time.perf_counter() - start) / inner)
    return cold, warm


def run_queries(directory, scope):
    search = directory.search if scope == "clusters" else \
        directory.search_pages
    for query in QUERIES:
        search(query, n=5)


def oracle_queries(directory, scope):
    """The oracle scan of the query mix, over combined vectors derived
    once up front (the directory caches its own per generation too)."""
    organizer = directory.organizer
    if scope == "clusters":
        scan, rows = scan_clusters, cluster_rows(organizer)
    else:
        scan, rows = scan_pages, page_rows(organizer)
    return lambda: [scan(organizer, query, 5, rows) for query in QUERIES]


def measure(label, directory, scope, rows):
    cold_scan, warm_scan = timed(oracle_queries(directory, scope))
    cold_indexed, warm_indexed = timed(lambda: run_queries(directory, scope))
    speedup = warm_scan / warm_indexed
    rows.append({
        "config": label,
        "scope": scope,
        "scan_cold_us": round(cold_scan * 1e6, 1),
        "scan_warm_us": round(warm_scan * 1e6, 1),
        "indexed_cold_us": round(cold_indexed * 1e6, 1),
        "indexed_warm_us": round(warm_indexed * 1e6, 1),
        "warm_speedup": round(speedup, 2),
    })
    print(
        f"  {label:<28} {scope:<8} scan {warm_scan * 1e6:8.0f}us  "
        f"indexed {warm_indexed * 1e6:8.0f}us  {speedup:5.2f}x warm"
    )
    return speedup


def test_bench_search_scan_vs_indexed(raw_pages):
    n_corpus = len(raw_pages)
    rows = []
    print(f"\n[{n_corpus} pages, {os.cpu_count()} cpu(s), "
          f"{len(QUERIES)} queries per measurement]")

    # Growing cluster counts, fixed 454-page corpus.
    cluster_speedups = {}
    for k in CLUSTER_COUNTS:
        with build_directory(raw_pages, k) as directory:
            assert_parity(directory)
            cluster_speedups[k] = measure(
                f"k={k} clusters", directory, "clusters", rows
            )
            measure(f"k={k} clusters", directory, "pages", rows)

    # Growing page counts at a fixed k: replicate the corpus under
    # suffixed URLs through the live add path, parity re-checked after
    # the churn.
    with build_directory(raw_pages, 32) as directory:
        page_speedups = {}
        assert_parity(directory)
        page_speedups[n_corpus] = measure(
            f"{n_corpus} pages (k=32)", directory, "pages", rows
        )
        total = n_corpus
        for copy in PAGE_REPLICAS:
            for raw in raw_pages:
                directory.add(dataclasses.replace(
                    raw, url=f"{raw.url}?copy={copy}"
                ))
            total += n_corpus
            assert_parity(directory)
            page_speedups[total] = measure(
                f"{total} pages (k=32)", directory, "pages", rows
            )

    top_k = CLUSTER_COUNTS[-1]
    top_pages = max(page_speedups)
    print(
        f"  speedup at k={top_k}: {cluster_speedups[top_k]:.2f}x, "
        f"at {top_pages} pages: {page_speedups[top_pages]:.2f}x "
        f"(required {REQUIRED_SPEEDUP}x)"
    )

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "search",
        "corpus_pages": n_corpus,
        "cpu_count": os.cpu_count(),
        "queries": len(QUERIES),
        "rows": rows,
        "speedup_at_max_clusters": round(cluster_speedups[top_k], 2),
        "speedup_at_max_pages": round(page_speedups[top_pages], 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "note": (
            "Single-threaded wall clock, warm = best-of-5 x 20 repeats; "
            "scan = the tests/oracle.py reference scan over the same "
            "live organizer (combined vectors derived once, outside the "
            "timing); every "
            "timed configuration passed a bit-identical parity check "
            "against it first."
        ),
    }, indent=2) + "\n")

    assert cluster_speedups[top_k] >= REQUIRED_SPEEDUP, (
        f"indexed cluster search only {cluster_speedups[top_k]:.2f}x at "
        f"k={top_k} (required {REQUIRED_SPEEDUP}x)"
    )
    assert page_speedups[top_pages] >= REQUIRED_SPEEDUP, (
        f"indexed page search only {page_speedups[top_pages]:.2f}x at "
        f"{top_pages} pages (required {REQUIRED_SPEEDUP}x)"
    )


def test_bench_search_pruning_ratio(raw_pages):
    """The index must actually skip work, not just re-order it: at
    k=128 the candidate-pruning ratio over the query mix stays > 0."""
    with build_directory(raw_pages, CLUSTER_COUNTS[-1]) as directory:
        assert_parity(directory)
        stats = directory._index.stats
        assert stats.rows_total > 0
        ratio = 1.0 - stats.rows_scored / stats.rows_total
        print(f"\n[k={CLUSTER_COUNTS[-1]}] pruning ratio {ratio:.1%} "
              f"({stats.rows_scored}/{stats.rows_total} rows scored)")
        assert ratio > 0.0
        if RESULTS_PATH.exists():
            payload = json.loads(RESULTS_PATH.read_text())
            payload["pruning"] = {
                "clusters": CLUSTER_COUNTS[-1],
                "rows_total": stats.rows_total,
                "rows_scored": stats.rows_scored,
                "pruning_ratio": round(ratio, 4),
            }
            RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
