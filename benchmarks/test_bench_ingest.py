"""Ingestion benchmark: serial vs process pool vs stream, on the
454-page corpus.

Measures the map phase (parse + tokenize + stem) end to end through
``FormPageVectorizer.fit_transform`` serially and on process pools of
several sizes, plus one streamed ingest, and records the table to
``BENCH_ingest.json`` at the repo root (the numbers quoted in
docs/PERFORMANCE.md).

The gated row pins the one-pass located-text scanner behind
``analyze_form_page`` to the DOM route it replaced (``tests/oracle.py``:
parse a tree, walk it, extract its forms): identical analyses, and at
least 1.2x faster per page, each side the best of three rounds that
alternate DOM and scan.

Every fit row is the best of :data:`ROUNDS` cold runs, so pool rows
and the serial row are timed alike.  With one usable CPU a pool cannot
beat serial (fork and pickle costs are pure overhead).  On two CPUs a
pool was not faster than serial beyond run-to-run spread over ten
interleaved pairs, which is why the default plan (``workers=1``) runs
serially; on a shared host a pool row can still fall either side of
serial.
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
REQUIRED_SCAN_SPEEDUP = 1.2
POOL_WORKER_COUNTS = (1, 2, 4, 8)
ROUNDS = 2  # best-of, for every fit row alike


@pytest.fixture(scope="module")
def raw_pages():
    return generate_benchmark(seed=42).raw_pages()


def _timed_fit(raw_pages, parallel):
    """Best-of-:data:`ROUNDS` wall clock for a cold fit under ``parallel``."""
    best = float("inf")
    vectorizer = None
    for _ in range(ROUNDS):
        vectorizer = FormPageVectorizer(parallel=parallel)
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
    }


def test_bench_ingest_executors(benchmark, raw_pages):
    n = len(raw_pages)
    rows = []

    # Baseline: cold serial.
    serial_cfg = ParallelConfig(workers=1)
    benchmark.pedantic(
        lambda: FormPageVectorizer(parallel=serial_cfg).fit_transform(raw_pages),
        rounds=1, iterations=1,
    )
    serial_time, serial_vec = _timed_fit(raw_pages, serial_cfg)
    rows.append(_row("serial cold", serial_time, n, serial_vec.ingest_stats))

    # Process pools, cold (workers=1 resolves to serial by contract).
    cpus = os.cpu_count() or 1
    for workers in POOL_WORKER_COUNTS:
        config = ParallelConfig(workers=workers)
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

    print(f"\n[{n} pages, {os.cpu_count()} cpu(s)]")
    for row in rows:
        print(
            f"  {row['config']:<22} {row['seconds']:7.3f}s  "
            f"{row['pages_per_sec']:7.1f} pages/s  ({row['executor']})"
        )

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "ingest",
        "corpus_pages": n,
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "note": (
            f"Every fit row is the best of {ROUNDS} runs.  The default "
            "plan (workers=1) runs serially; an explicit pool size pools "
            "from 64 pending pages, workers=0 from 1,000, when the process "
            "may use two or more CPUs.  On a shared host a pool row can land either side "
            "of serial by noise alone: compare pool and serial over "
            "interleaved repeats."
        ),
    }, indent=2) + "\n")


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


def _best_ms_per_page(analyzes, raw_pages, analyzer, rounds=3):
    """Best-of-``rounds`` CPU ms/page of each analyze function.  Every
    round times each function once, in turn, so host load that drifts
    during the bench weighs on all of them alike."""
    best = [float("inf")] * len(analyzes)
    for _ in range(rounds):
        for index, analyze in enumerate(analyzes):
            start = time.process_time()
            for raw in raw_pages:
                analyze(raw, analyzer)
            best[index] = min(best[index], time.process_time() - start)
    return [1000.0 * seconds / len(raw_pages) for seconds in best]


def test_bench_scan_vs_dom_oracle(raw_pages):
    """One scan per page vs parse + tree walk + extract_forms."""
    # One warm analyzer for both sides, so stemming costs them the same.
    analyzer = TextAnalyzer()
    for raw in raw_pages:
        assert analyze_form_page(raw, analyzer) == dom_page_analysis(raw, analyzer), raw.url

    dom_ms, scan_ms = _best_ms_per_page(
        (dom_page_analysis, analyze_form_page), raw_pages, analyzer
    )
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
        "parity": "identical PageAnalysis (term runs) on every page",
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    assert speedup >= REQUIRED_SCAN_SPEEDUP, (
        f"one-pass scan only {speedup:.2f}x over the DOM oracle "
        f"(required {REQUIRED_SCAN_SPEEDUP}x)"
    )
