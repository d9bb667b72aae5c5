"""The parallel ingestion layer: planning, caching, parity, failure modes.

The load-bearing test here is the parity suite: whatever executor runs
the map phase — serial, thread pool, process pool, or a warm analysis
cache — the vectorizer must emit *bit-identical* output on the full
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
    analyze_form_page,
    analyze_pages,
    page_analysis_key,
    parallel_map,
)
from repro.parallel.cache import (
    analysis_from_json,
    analysis_to_json,
    analyzer_fingerprint,
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
    vectorizer, pages = _fit(
        benchmark_raw_pages, workers=1, executor="serial", use_cache=False
    )
    assert vectorizer.ingest_stats.executor == "serial"
    assert vectorizer.ingest_stats.pages_analyzed == len(benchmark_raw_pages)
    return _fingerprint_corpus(vectorizer, pages)


def test_process_pool_parity(benchmark_raw_pages, serial_reference):
    vectorizer, pages = _fit(
        benchmark_raw_pages,
        workers=2, executor="process", chunk_size=16, use_cache=False,
    )
    assert vectorizer.ingest_stats.executor == "process"
    assert vectorizer.ingest_stats.workers == 2
    assert _fingerprint_corpus(vectorizer, pages) == serial_reference


def test_thread_pool_parity(benchmark_raw_pages, serial_reference):
    vectorizer, pages = _fit(
        benchmark_raw_pages, workers=4, executor="thread", use_cache=False
    )
    assert vectorizer.ingest_stats.executor == "thread"
    assert _fingerprint_corpus(vectorizer, pages) == serial_reference


def test_memory_cache_parity(benchmark_raw_pages, serial_reference):
    """A second fit on the same vectorizer replays every analysis from the
    in-memory cache — zero re-parses, identical output."""
    vectorizer = FormPageVectorizer(
        parallel=ParallelConfig(workers=1),
        analysis_cache_size=len(benchmark_raw_pages),
    )
    vectorizer.fit_transform(benchmark_raw_pages)
    analyzed_first = vectorizer.ingest_stats.pages_analyzed

    warm = FormPageVectorizer(parallel=ParallelConfig(workers=1))
    warm._analysis_cache = vectorizer._analysis_cache
    pages = warm.fit_transform(benchmark_raw_pages)

    assert analyzed_first == len(benchmark_raw_pages)
    assert warm.ingest_stats.pages_analyzed == 0
    assert warm.ingest_stats.memory_cache_hits == len(benchmark_raw_pages)
    assert _fingerprint_corpus(warm, pages) == serial_reference


def test_disk_cache_parity(benchmark_raw_pages, serial_reference, tmp_path):
    cache_dir = str(tmp_path / "analysis-cache")
    cold, _ = _fit(benchmark_raw_pages, workers=1, cache_dir=cache_dir)
    assert cold.ingest_stats.pages_analyzed == len(benchmark_raw_pages)

    warm, pages = _fit(benchmark_raw_pages, workers=1, cache_dir=cache_dir)
    assert warm.ingest_stats.pages_analyzed == 0
    assert warm.ingest_stats.disk_cache_hits == len(benchmark_raw_pages)
    assert _fingerprint_corpus(warm, pages) == serial_reference


def test_raw_pages_parallel_harvest_identical(benchmark_web):
    serial = benchmark_web.raw_pages()
    threaded = benchmark_web.raw_pages(
        parallel=ParallelConfig(workers=4, executor="thread")
    )
    assert [p.url for p in threaded] == [p.url for p in serial]
    assert [p.backlinks for p in threaded] == [p.backlinks for p in serial]
    assert [p.html for p in threaded] == [p.html for p in serial]


# ----------------------------------------------------------------------
# Planning (ParallelConfig.resolve).
# ----------------------------------------------------------------------


def test_workers_one_never_spawns_a_pool(monkeypatch, small_raw_pages):
    """The satellite contract: workers=1 runs inline even when a pool
    executor is requested explicitly."""

    def boom(*args, **kwargs):
        raise AssertionError("a pool was spawned for workers=1")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", boom)
    for executor in ("process", "thread", "auto"):
        vectorizer, pages = _fit(
            small_raw_pages[:6], workers=1, executor=executor, use_cache=False
        )
        assert vectorizer.ingest_stats.executor == "serial"
        assert len(pages) == 6


def test_resolve_policy():
    assert ParallelConfig(workers=1, executor="process").resolve(500).is_serial
    assert ParallelConfig(workers=4, executor="serial").resolve(500).is_serial
    # auto: serial below the amortization threshold, process at scale.
    auto = ParallelConfig(workers=4, executor="auto")
    assert auto.resolve(MIN_AUTO_PARALLEL_PAGES - 1).is_serial
    assert auto.resolve(MIN_AUTO_PARALLEL_PAGES).kind == "process"
    # Forced pools always honor the request.
    plan = ParallelConfig(workers=3, executor="thread").resolve(10)
    assert (plan.kind, plan.workers) == ("thread", 3)
    assert 1 <= plan.chunk_size <= 10
    # Explicit chunk size wins; zero items degrade to serial.
    assert ParallelConfig(
        workers=2, executor="process", chunk_size=5
    ).resolve(100).chunk_size == 5
    assert ParallelConfig(workers=8, executor="process").resolve(0).is_serial


def test_auto_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # Pinned to one CPU of eight: auto stays serial, whatever the size.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert ParallelConfig().effective_workers() == 1
    assert ParallelConfig().resolve(500).is_serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert ParallelConfig().resolve(500).workers == 3
    # An explicit pool size is not second-guessed.
    assert ParallelConfig(workers=4).effective_workers() == 4
    # Without an affinity call the CPU count decides.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ParallelConfig().effective_workers() == 8


def test_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ParallelConfig(executor="fibers")
    with pytest.raises(ValueError):
        ParallelConfig(workers=-1)
    with pytest.raises(ValueError):
        ParallelConfig(chunk_size=-2)
    config = ParallelConfig(
        workers=4, chunk_size=8, executor="thread",
        use_cache=False, cache_dir="/tmp/x",
    )
    assert ParallelConfig.from_dict(config.to_dict()) == config
    assert ParallelConfig.from_dict({}) == ParallelConfig()


# ----------------------------------------------------------------------
# Failure modes.
# ----------------------------------------------------------------------


def test_empty_corpus():
    vectorizer, pages = _fit([], workers=4, executor="process")
    assert pages == []
    assert vectorizer.ingest_stats.pages_total == 0
    assert vectorizer.pc_corpus.document_count == 0


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_broken_page_raises_typed_error_naming_url(executor):
    good = RawFormPage(url="http://ok.example/", html="<html><body>fine")
    # html=None violates the type and blows up inside the parser — the
    # shape of a crawler handing the pipeline a failed fetch.
    bad = RawFormPage(url="http://broken.example/search", html=None)
    config = ParallelConfig(workers=2, executor=executor, use_cache=False)
    with pytest.raises(IngestError) as excinfo:
        analyze_pages([good, bad, good], TextAnalyzer(), config=config)
    assert excinfo.value.url == "http://broken.example/search"
    assert "http://broken.example/search" in str(excinfo.value)
    assert excinfo.value.cause


def test_keyboard_interrupt_shuts_pool_down(monkeypatch):
    """Ctrl-C inside a worker propagates (it must never be swallowed as a
    per-page error) and the pool is cancelled, not joined."""

    class InterruptingAnalyzer(TextAnalyzer):
        def analyze(self, text):
            raise KeyboardInterrupt

    shutdowns = []
    original = concurrent.futures.ThreadPoolExecutor.shutdown

    def spy(self, wait=True, cancel_futures=False):
        shutdowns.append((wait, cancel_futures))
        return original(self, wait=wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", spy)
    pages = [
        RawFormPage(url=f"http://site{i}.example/", html="<p>text here</p>")
        for i in range(8)
    ]
    config = ParallelConfig(
        workers=2, executor="thread", chunk_size=1, use_cache=False
    )
    with pytest.raises(KeyboardInterrupt):
        analyze_pages(pages, InterruptingAnalyzer(), config=config)
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
    assert vectorizer.ingest_stats.memory_cache_hits >= 2
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
# Cache keys and stores.
# ----------------------------------------------------------------------


def test_page_key_tracks_analysis_inputs_only():
    analyzer_print = analyzer_fingerprint(TextAnalyzer())
    base = RawFormPage(url="http://x.example/", html="<p>a</p>",
                       backlinks=["http://hub.example/"])
    same_but_backlinks = RawFormPage(url="http://x.example/", html="<p>a</p>",
                                     backlinks=["http://other.example/"])
    other_html = RawFormPage(url="http://x.example/", html="<p>b</p>")
    other_anchor = RawFormPage(url="http://x.example/", html="<p>a</p>",
                               anchor_texts=["cheap flights"])
    key = page_analysis_key(base, analyzer_print)
    # Backlinks never enter text analysis, so they must not split keys...
    assert page_analysis_key(same_but_backlinks, analyzer_print) == key
    # ...but HTML, anchor text, and the analyzer configuration all do.
    assert page_analysis_key(other_html, analyzer_print) != key
    assert page_analysis_key(other_anchor, analyzer_print) != key
    ablated = analyzer_fingerprint(TextAnalyzer(stopwords=frozenset({"the"})))
    assert ablated != analyzer_print
    assert page_analysis_key(base, ablated) != key


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


def test_analysis_json_roundtrip_and_version_gate(small_raw_pages):
    analysis = analyze_form_page(small_raw_pages[0], TextAnalyzer())
    restored = analysis_from_json(analysis_to_json(analysis))
    assert restored == analysis
    assert analysis_from_json({"v": 999, "pc": []}) is None
    assert analysis_from_json("garbage") is None
    assert analysis_from_json({"v": 1, "pc": [["a"]]}) is None


def test_page_analysis_pickles():
    analysis = PageAnalysis(pc_terms=[], fc_terms=[],
                            attribute_count=2, on_page_terms=0)
    assert pickle.loads(pickle.dumps(analysis)) == analysis


# ----------------------------------------------------------------------
# The generic order-preserving map.
# ----------------------------------------------------------------------


def test_parallel_map_preserves_order():
    items = list(range(50))
    serial = parallel_map(lambda x: x * x, items, ParallelConfig(workers=1))
    threaded = parallel_map(
        lambda x: x * x, items, ParallelConfig(workers=4, executor="thread")
    )
    degraded = parallel_map(  # process plans degrade to threads here
        lambda x: x * x, items,
        ParallelConfig(workers=4, executor="process", chunk_size=1),
    )
    assert serial == threaded == degraded == [x * x for x in items]
    assert parallel_map(lambda x: x, [], ParallelConfig(workers=8)) == []
