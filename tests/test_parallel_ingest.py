"""The parallel ingestion layer: planning, caching, parity, failure modes.

The load-bearing test here is the parity suite: whatever runs the map
phase — serial, a process pool, or a warm analysis cache — the
vectorizer must emit *bit-identical* output on the full
454-page benchmark corpus: same vocabulary insertion order, same
document frequencies, same float weights.  Everything downstream
(similarity, clustering, the paper's tables) inherits determinism from
this contract.
"""

import concurrent.futures
import os
import pickle
import threading

import pytest

from repro.core.form_page import RawFormPage
from repro.core.vectorizer import FormPageVectorizer
from repro.parallel import (
    AnalysisCache,
    IngestError,
    PageAnalysis,
    ParallelConfig,
    analyze_pages,
    page_analysis_key,
    parallel_map,
)
from repro.parallel.config import MIN_AUTO_PARALLEL_PAGES
from repro.text.analyzer import TextAnalyzer


def _fingerprint_corpus(vectorizer, pages):
    """Everything that must match bit-for-bit between two ingestion runs:
    vocabulary *insertion order*, DF counts, N, and every vector item."""
    return (
        list(vectorizer.pc_corpus._document_frequency.items()),
        list(vectorizer.fc_corpus._document_frequency.items()),
        vectorizer.pc_corpus.document_count,
        [
            (
                page.url,
                sorted(page.pc.items()),
                sorted(page.fc.items()),
                page.pc_norm,
                page.fc_norm,
                page.attribute_count,
                page.form_term_count,
                page.page_term_count,
            )
            for page in pages
        ],
    )


def _fit(raw_pages, **parallel_kwargs):
    vectorizer = FormPageVectorizer(
        parallel=ParallelConfig(**parallel_kwargs) if parallel_kwargs else None
    )
    pages = vectorizer.fit_transform(raw_pages)
    return vectorizer, pages


# ----------------------------------------------------------------------
# Parity: the non-negotiable invariant, on the full benchmark corpus.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_reference(benchmark_raw_pages):
    vectorizer, pages = _fit(benchmark_raw_pages, workers=1, use_cache=False)
    assert vectorizer.ingest_stats.executor == "serial"
    assert vectorizer.ingest_stats.pages_analyzed == len(benchmark_raw_pages)
    return _fingerprint_corpus(vectorizer, pages)


def test_process_pool_parity(benchmark_raw_pages, serial_reference):
    vectorizer, pages = _fit(benchmark_raw_pages, workers=2, use_cache=False)
    assert vectorizer.ingest_stats.executor == "process"
    assert vectorizer.ingest_stats.workers == 2
    assert _fingerprint_corpus(vectorizer, pages) == serial_reference


def test_memory_cache_parity(benchmark_raw_pages, serial_reference):
    """A second fit on the same vectorizer replays every analysis from the
    in-memory cache — zero re-parses, identical output."""
    vectorizer = FormPageVectorizer(parallel=ParallelConfig(workers=1))
    vectorizer.fit_transform(benchmark_raw_pages)
    analyzed_first = vectorizer.ingest_stats.pages_analyzed

    warm = FormPageVectorizer(parallel=ParallelConfig(workers=1))
    warm._analysis_cache = vectorizer._analysis_cache
    pages = warm.fit_transform(benchmark_raw_pages)

    assert analyzed_first == len(benchmark_raw_pages)
    assert warm.ingest_stats.pages_analyzed == 0
    assert warm.ingest_stats.cache_hits == len(benchmark_raw_pages)
    assert _fingerprint_corpus(warm, pages) == serial_reference


def test_raw_pages_parallel_harvest_identical(benchmark_web):
    serial = benchmark_web.raw_pages()
    threaded = benchmark_web.raw_pages(parallel=ParallelConfig(workers=4))
    assert [p.url for p in threaded] == [p.url for p in serial]
    assert [p.backlinks for p in threaded] == [p.backlinks for p in serial]
    assert [p.html for p in threaded] == [p.html for p in serial]


# ----------------------------------------------------------------------
# Planning (ParallelConfig.pool_size).
# ----------------------------------------------------------------------


def test_workers_one_never_spawns_a_pool(monkeypatch, small_raw_pages):
    """workers=1 runs inline even on a corpus large enough to pool."""

    def boom(*args, **kwargs):
        raise AssertionError("a pool was spawned for workers=1")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", boom)
    assert len(small_raw_pages) >= MIN_AUTO_PARALLEL_PAGES
    vectorizer, pages = _fit(small_raw_pages, workers=1, use_cache=False)
    assert vectorizer.ingest_stats.executor == "serial"
    assert len(pages) == len(small_raw_pages)
    items = list(range(MIN_AUTO_PARALLEL_PAGES))
    assert parallel_map(str, items, ParallelConfig(workers=1)) == \
        [str(x) for x in items]


def test_resolve_policy():
    assert ParallelConfig(workers=1).pool_size(500) == 1
    # Serial below the amortization threshold, a pool at scale.
    config = ParallelConfig(workers=4)
    assert config.pool_size(MIN_AUTO_PARALLEL_PAGES - 1) == 1
    assert config.pool_size(MIN_AUTO_PARALLEL_PAGES) == 4
    assert ParallelConfig(workers=8).pool_size(0) == 1


def test_auto_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # Pinned to one CPU of eight: auto stays serial, whatever the size.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert ParallelConfig().effective_workers() == 1
    assert ParallelConfig().pool_size(500) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert ParallelConfig().pool_size(500) == 3
    # An explicit pool size is not second-guessed.
    assert ParallelConfig(workers=4).effective_workers() == 4
    # Without an affinity call the CPU count decides.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ParallelConfig().effective_workers() == 8


def test_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ParallelConfig(workers=-1)
    config = ParallelConfig(workers=4, use_cache=False)
    assert ParallelConfig.from_dict(config.to_dict()) == config
    assert ParallelConfig.from_dict({}) == ParallelConfig()
    # Snapshots and configs written with the older five-key layout load
    # unchanged: the keys this config no longer has are ignored.
    older = {
        "executor": "thread", "chunk_size": 8, "cache_dir": "/tmp/x",
        "workers": 4, "use_cache": False,
    }
    assert ParallelConfig.from_dict(older) == config


# ----------------------------------------------------------------------
# Failure modes.
# ----------------------------------------------------------------------


def test_empty_corpus():
    vectorizer, pages = _fit([], workers=4)
    assert pages == []
    assert vectorizer.ingest_stats.pages_total == 0
    assert vectorizer.pc_corpus.document_count == 0


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
def test_broken_page_raises_typed_error_naming_url(workers):
    good = RawFormPage(url="http://ok.example/", html="<html><body>fine")
    # html=None violates the type and blows up inside the parser — the
    # shape of a crawler handing the pipeline a failed fetch.
    bad = RawFormPage(url="http://broken.example/search", html=None)
    pages = [good] * 40 + [bad] + [good] * 40
    config = ParallelConfig(workers=workers, use_cache=False)
    assert config.pool_size(len(pages)) == workers
    with pytest.raises(IngestError) as excinfo:
        analyze_pages(pages, TextAnalyzer(), config=config)
    assert excinfo.value.url == "http://broken.example/search"
    assert "http://broken.example/search" in str(excinfo.value)
    assert excinfo.value.cause


def test_keyboard_interrupt_shuts_pool_down(monkeypatch):
    """Ctrl-C propagates (it must never be swallowed as a per-page
    error) and the process pool is cancelled, not joined."""

    class InterruptingAnalyzer(TextAnalyzer):
        def analyze(self, text):
            raise KeyboardInterrupt

    pages = [
        RawFormPage(url=f"http://site{i}.example/", html="<p>text here</p>")
        for i in range(MIN_AUTO_PARALLEL_PAGES)
    ]
    with pytest.raises(KeyboardInterrupt):
        analyze_pages(
            pages, InterruptingAnalyzer(),
            config=ParallelConfig(workers=1, use_cache=False),
        )

    pool = concurrent.futures.ProcessPoolExecutor
    shutdowns = []
    original = pool.shutdown

    def interrupted_map(self, fn, *iterables, **kwargs):
        raise KeyboardInterrupt

    def spy(self, wait=True, *, cancel_futures=False):
        shutdowns.append((wait, cancel_futures))
        return original(self, wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(pool, "map", interrupted_map)
    monkeypatch.setattr(pool, "shutdown", spy)
    with pytest.raises(KeyboardInterrupt):
        analyze_pages(
            pages, TextAnalyzer(),
            config=ParallelConfig(workers=2, use_cache=False),
        )
    assert (False, True) in shutdowns, "pool was not cancelled on interrupt"


# ----------------------------------------------------------------------
# transform_new cache reuse (the service /classify retry path).
# ----------------------------------------------------------------------


def test_transform_new_reuses_fit_analysis(small_raw_pages):
    vectorizer, _ = _fit(list(small_raw_pages), workers=1)
    analyzed = vectorizer.ingest_stats.pages_analyzed
    first = vectorizer.transform_new(small_raw_pages[0])
    again = vectorizer.transform_new(small_raw_pages[0])
    # Same content hash -> the analysis from fit_transform is replayed.
    assert vectorizer.ingest_stats.pages_analyzed == analyzed
    assert vectorizer.ingest_stats.cache_hits >= 2
    assert first.pc == again.pc and first.fc == again.fc

    edited = RawFormPage(
        url=small_raw_pages[0].url, html="<p>different content now</p>"
    )
    vectorizer.transform_new(edited)
    assert vectorizer.ingest_stats.pages_analyzed == analyzed + 1


def test_transform_new_wraps_parse_failures():
    vectorizer, _ = _fit(
        [RawFormPage(url="http://a.example/", html="<p>hi there</p>")]
    )
    with pytest.raises(IngestError) as excinfo:
        vectorizer.transform_new(RawFormPage(url="http://b.example/", html=None))
    assert excinfo.value.url == "http://b.example/"


# ----------------------------------------------------------------------
# Cache keys and the in-memory store.
# ----------------------------------------------------------------------


def test_page_key_tracks_analysis_inputs_only():
    base = RawFormPage(url="http://x.example/", html="<p>a</p>",
                       backlinks=["http://hub.example/"])
    same_but_backlinks = RawFormPage(url="http://x.example/", html="<p>a</p>",
                                     backlinks=["http://other.example/"])
    other_html = RawFormPage(url="http://x.example/", html="<p>b</p>")
    other_anchor = RawFormPage(url="http://x.example/", html="<p>a</p>",
                               anchor_texts=["cheap flights"])
    key = page_analysis_key(base)
    # Backlinks never enter text analysis, so they must not split keys...
    assert page_analysis_key(same_but_backlinks) == key
    # ...but HTML and anchor text do.
    assert page_analysis_key(other_html) != key
    assert page_analysis_key(other_anchor) != key


def test_memory_cache_is_a_bounded_lru():
    cache = AnalysisCache(max_size=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh 'a'
    cache.put("c", 3)                   # evicts 'b', the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2
    disabled = AnalysisCache(max_size=0)
    disabled.put("a", 1)
    assert disabled.get("a") is None and len(disabled) == 0


def test_memory_cache_survives_concurrent_hammering():
    # Regression: the HTTP server's worker pool reaches this cache
    # from concurrent /classify and /add handlers outside every
    # directory lock; unsynchronized move_to_end/popitem raced into
    # KeyError and a corrupted LRU.
    cache = AnalysisCache(max_size=8)
    errors = []
    start = threading.Barrier(8)

    def hammer(seed):
        try:
            start.wait()
            for i in range(2000):
                key = f"k{(seed * 31 + i) % 32}"
                cache.put(key, i)
                cache.get(key)
                cache.get(f"k{i % 32}")
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(cache) <= 8


def test_page_analysis_pickles():
    analysis = PageAnalysis(pc_terms=[], fc_terms=[],
                            attribute_count=2, on_page_terms=0)
    assert pickle.loads(pickle.dumps(analysis)) == analysis


# ----------------------------------------------------------------------
# The generic order-preserving map.
# ----------------------------------------------------------------------


def test_parallel_map_preserves_order():
    items = list(range(MIN_AUTO_PARALLEL_PAGES))
    serial = parallel_map(lambda x: x * x, items, ParallelConfig(workers=1))
    threaded = parallel_map(lambda x: x * x, items, ParallelConfig(workers=4))
    assert serial == threaded == [x * x for x in items]
    # At this size a multi-worker config runs the callable on threads.
    names = parallel_map(
        lambda x: threading.current_thread().name, items,
        ParallelConfig(workers=4),
    )
    assert all(name.startswith("repro-pmap") for name in names)
    assert parallel_map(lambda x: x, [], ParallelConfig(workers=8)) == []
