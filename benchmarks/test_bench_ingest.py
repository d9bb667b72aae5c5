"""Ingestion benchmark: serial vs process pool vs warm cache, on the
454-page corpus.

Measures the map phase (parse + tokenize + stem) end to end through
``FormPageVectorizer.fit_transform`` serially, on process pools of
several sizes, and replayed from a warm in-memory analysis cache, and
records the table to ``BENCH_ingest.json`` at the repo root (the
numbers quoted in docs/PERFORMANCE.md).

The acceptance claim is the *cached* path: a warm memory-cache fit at 4
workers must be at least 2x faster than a cold serial run.  A second
gated row pins the one-pass located-text scanner behind
``analyze_form_page`` to the DOM route it replaced (``tests/oracle.py``:
parse a tree, walk it, extract its forms): identical analyses, and at
least 1.2x faster per page.

Process-pool rows are measured and recorded for completeness; on a
single-core host (``cpu_count`` is in the JSON) a pool cannot beat
serial — fork and pickle costs are pure overhead there — which is
exactly why ``workers=0`` resolves to serial on such machines.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.vectorizer import FormPageVectorizer
from repro.html.text_extract import page_text
from repro.parallel import ParallelConfig, analyze_form_page
from repro.text.analyzer import TextAnalyzer
from repro.text.stemmer import PorterStemmer
from repro.text.tokenize import tokenize
from repro.webgen.corpus import generate_benchmark
from tests.oracle import dom_page_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_ingest.json"
REQUIRED_CACHED_SPEEDUP = 2.0
REQUIRED_SCAN_SPEEDUP = 1.2
POOL_WORKER_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def raw_pages():
    return generate_benchmark(seed=42).raw_pages()


def _timed_fit(raw_pages, parallel, rounds=1, prime=None):
    """Best-of-``rounds`` wall clock for a cold fit under ``parallel``.

    ``prime`` (a shared AnalysisCache) turns the fit into a warm-cache
    replay: the same corpus was analyzed into that cache beforehand.
    """
    best = float("inf")
    vectorizer = None
    for _ in range(rounds):
        vectorizer = FormPageVectorizer(parallel=parallel)
        if prime is not None:
            vectorizer._analysis_cache = prime
        start = time.perf_counter()
        vectorizer.fit_transform(raw_pages)
        best = min(best, time.perf_counter() - start)
    return best, vectorizer


def _row(name, seconds, n_pages, stats, mode="batch"):
    # ``mode`` keeps rows comparable across trajectories now that the
    # streaming path (benchmarks/test_bench_stream.py) records ingestion
    # numbers too: "batch" rows see the whole corpus before vectorizing,
    # "stream" rows pay the drift-gated re-weight policy instead.
    return {
        "config": name,
        "mode": mode,
        "seconds": round(seconds, 4),
        "pages_per_sec": round(n_pages / seconds, 1),
        "executor": stats.executor,
        "pages_analyzed": stats.pages_analyzed,
        "cache_hits": stats.cache_hits,
    }


def test_bench_ingest_executors_and_cache(benchmark, raw_pages):
    n = len(raw_pages)
    rows = []

    # Baseline: cold serial, caching off — every page parsed from scratch.
    serial_cfg = ParallelConfig(workers=1, use_cache=False)
    benchmark.pedantic(
        lambda: FormPageVectorizer(parallel=serial_cfg).fit_transform(raw_pages),
        rounds=1, iterations=1,
    )
    serial_time, serial_vec = _timed_fit(raw_pages, serial_cfg, rounds=2)
    rows.append(_row("serial cold", serial_time, n, serial_vec.ingest_stats))

    # Process pools, cold (workers=1 resolves to serial by contract).
    cpus = os.cpu_count() or 1
    for workers in POOL_WORKER_COUNTS:
        config = ParallelConfig(workers=workers, use_cache=False)
        seconds, vectorizer = _timed_fit(raw_pages, config)
        row = _row(
            f"process x{workers} cold", seconds, n, vectorizer.ingest_stats
        )
        if workers > cpus:
            row["note"] = (
                f"requested {workers} workers on a {cpus}-cpu host; "
                "measured under oversubscription, not a parallel speedup"
            )
        rows.append(row)

    # Warm in-memory cache at 4 workers (the in-process re-fit path): a
    # prior fit left its analyses in the cache; this run replays them and
    # has nothing left to pool.
    primer = FormPageVectorizer(parallel=ParallelConfig(workers=4))
    primer.fit_transform(raw_pages)
    memory_time, memory_vec = _timed_fit(
        raw_pages, ParallelConfig(workers=4), prime=primer._analysis_cache
    )
    assert memory_vec.ingest_stats.pages_analyzed == 0
    rows.append(_row(
        "warm memory cache x4", memory_time, n, memory_vec.ingest_stats
    ))

    # Streamed ingestion on the same corpus (cold, serial): what the
    # drift-gated observe → re-weight → emit path costs relative to the
    # two-pass batch fit.  Recorded for trajectory comparison only; the
    # streaming acceptance gates live in test_bench_stream.py.
    from repro.stream import StreamConfig, StreamingIngestor

    start = time.perf_counter()
    ingestor = StreamingIngestor(StreamConfig())
    for _ in ingestor.ingest(iter(raw_pages)):
        pass
    stream_time = time.perf_counter() - start
    stream_row = _row(
        "stream cold", stream_time, n,
        ingestor.vectorizer.ingest_stats, mode="stream",
    )
    stream_row["reweights"] = ingestor.stats.reweights
    rows.append(stream_row)

    cached_speedup = serial_time / memory_time
    print(f"\n[{n} pages, {os.cpu_count()} cpu(s)]")
    for row in rows:
        print(
            f"  {row['config']:<22} {row['seconds']:7.3f}s  "
            f"{row['pages_per_sec']:7.1f} pages/s  "
            f"({row['pages_analyzed']} analyzed, {row['cache_hits']} cached)"
        )
    print(f"  cached-vs-serial speedup: {cached_speedup:.2f}x "
          f"(required {REQUIRED_CACHED_SPEEDUP}x)")

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "ingest",
        "corpus_pages": n,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "cached_speedup_vs_serial": round(cached_speedup, 2),
        "required_speedup": REQUIRED_CACHED_SPEEDUP,
        "note": (
            "Pool rows are cold-start measurements; on a host without "
            "spare cores a process pool cannot beat serial (the auto "
            "plan then stays serial).  The >=2x acceptance claim is "
            "the warm in-memory analysis cache."
        ),
    }, indent=2) + "\n")

    assert cached_speedup >= REQUIRED_CACHED_SPEEDUP, (
        f"warm-cache ingestion only {cached_speedup:.2f}x over serial cold "
        f"(required {REQUIRED_CACHED_SPEEDUP}x)"
    )


def test_bench_stemmer_memoization(raw_pages):
    """The stem memo table on the real token stream: hit rate and timing."""
    tokens = []
    for raw in raw_pages[:120]:
        tokens.extend(tokenize(page_text(raw.html)))

    cold = PorterStemmer(cache_size=0)
    start = time.perf_counter()
    for token in tokens:
        cold.stem(token)
    uncached_time = time.perf_counter() - start

    warm = PorterStemmer()
    start = time.perf_counter()
    for token in tokens:
        warm.stem(token)
    cached_time = time.perf_counter() - start

    lookups = warm.cache_hits + warm.cache_misses
    hit_rate = warm.cache_hits / lookups
    print(
        f"\n[{len(tokens)} tokens] uncached {uncached_time:.3f}s  "
        f"cached {cached_time:.3f}s  hit rate {hit_rate:.1%} "
        f"({warm.cache_hits}/{lookups})"
    )
    # Web corpora repeat terms heavily; the memo table must convert that
    # repetition into hits.
    assert hit_rate >= 0.5

    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
        payload["stemmer"] = {
            "tokens": len(tokens),
            "uncached_seconds": round(uncached_time, 4),
            "cached_seconds": round(cached_time, 4),
            "hit_rate": round(hit_rate, 4),
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _best_ms_per_page(analyze, raw_pages, analyzer, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.process_time()
        for raw in raw_pages:
            analyze(raw, analyzer)
        best = min(best, time.process_time() - start)
    return 1000.0 * best / len(raw_pages)


def test_bench_scan_vs_dom_oracle(raw_pages):
    """One scan per page vs parse + tree walk + extract_forms."""
    # One warm analyzer for both sides, so stemming costs them the same.
    analyzer = TextAnalyzer()
    for raw in raw_pages:
        assert analyze_form_page(raw, analyzer) == dom_page_analysis(raw, analyzer), raw.url

    dom_ms = _best_ms_per_page(dom_page_analysis, raw_pages, analyzer)
    scan_ms = _best_ms_per_page(analyze_form_page, raw_pages, analyzer)
    speedup = dom_ms / scan_ms
    print(f"\n[{len(raw_pages)} pages] analyze_form_page: DOM oracle "
          f"{dom_ms:.3f} ms/page, one-pass scan {scan_ms:.3f} ms/page "
          f"({speedup:.2f}x, required {REQUIRED_SCAN_SPEEDUP}x)")

    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    results["scan_vs_dom_oracle"] = {
        "dom_oracle_ms_per_page": round(dom_ms, 3),
        "scan_ms_per_page": round(scan_ms, 3),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_SCAN_SPEEDUP,
        "parity": "identical PageAnalysis on every page",
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    assert speedup >= REQUIRED_SCAN_SPEEDUP, (
        f"one-pass scan only {speedup:.2f}x over the DOM oracle "
        f"(required {REQUIRED_SCAN_SPEEDUP}x)"
    )
