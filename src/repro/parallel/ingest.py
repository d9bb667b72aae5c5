"""The map phase of parallel ingestion: raw HTML -> located-term analyses.

:func:`analyze_form_page` is the single source of truth for per-page
text analysis — the vectorizer's serial path, the process-pool workers
and the analysis cache all produce or replay exactly this function's
output, which is what makes the parallel path bit-identical to the
serial one:

* term lists keep original document order (so LOC-weighted TF counters
  accumulate in the same order);
* the parent merges document frequencies itself, in page order, through
  the same ``CorpusStats.add_document`` call the serial path uses (so
  vocabulary insertion order and DF counts match exactly);
* stemming and tokenization are pure functions, so *where* they run
  (worker process or parent) cannot change their output.

Failures inside a worker surface as a typed :class:`IngestError` naming
the page URL; ``KeyboardInterrupt`` shuts the pool down and propagates.
"""

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.form_page import LocatedTerm, RawFormPage
from repro.html.text_extract import TextLocation, scan_page
from repro.parallel.cache import AnalysisCache, page_analysis_key
from repro.parallel.config import ParallelConfig
from repro.text.analyzer import TextAnalyzer

T = TypeVar("T")
R = TypeVar("R")


class IngestError(RuntimeError):
    """A page failed to analyze; ``url`` names the culprit."""

    def __init__(self, url: str, cause: str) -> None:
        self.url = url
        self.cause = cause
        super().__init__(f"failed to analyze page {url!r}: {cause}")


@dataclass
class PageAnalysis:
    """The map-phase output for one page — everything downstream of
    parsing that vector building needs.  Picklable."""

    pc_terms: List[LocatedTerm]
    fc_terms: List[LocatedTerm]
    attribute_count: int
    on_page_terms: int


@dataclass
class IngestStats:
    """Cumulative ingestion instrumentation (per vectorizer)."""

    pages_total: int = 0        # pages requested through analyze_pages
    pages_analyzed: int = 0     # actually parsed (cache misses)
    cache_hits: int = 0
    map_seconds: float = 0.0    # wall time of the map phase
    runs: int = 0
    executor: str = "serial"    # "serial" | "process", most recent run
    workers: int = 1

    def describe(self) -> str:
        return (
            f"{self.executor} x{self.workers}: {self.pages_total} pages, "
            f"{self.pages_analyzed} analyzed, {self.cache_hits} cached, "
            f"{self.map_seconds:.2f}s map"
        )

    def as_dict(self) -> dict:
        return {
            "pages_total": self.pages_total,
            "pages_analyzed": self.pages_analyzed,
            "cache_hits": self.cache_hits,
            "map_seconds": self.map_seconds,
            "runs": self.runs,
            "executor": self.executor,
            "workers": self.workers,
        }


def analyze_form_page(raw: RawFormPage, analyzer: TextAnalyzer) -> PageAnalysis:
    """Analyze one raw page: scan located text, tokenize, stem.

    This is the Section 2.1 construction up to (but excluding) the
    corpus-relative IDF weighting.  ``on_page_terms`` counts only the
    page's own visible terms — harvested anchor text (appended at the
    end of ``pc_terms``) is excluded, since Table 1 reasons about
    on-page text.  ``attribute_count`` is the largest form's: a page can
    embed several forms (nav search + the database form), and the
    database form is normally the largest.
    """
    scan = scan_page(raw.html)
    pc_terms: List[LocatedTerm] = []
    fc_terms: List[LocatedTerm] = []
    for fragment in scan.fragments:
        terms = analyzer.analyze(fragment.text)
        located = [(term, fragment.location) for term in terms]
        pc_terms.extend(located)
        if fragment.inside_form:
            fc_terms.extend(located)
    # Incoming anchor text (when harvested) joins the page context with
    # the ANCHOR location weight — it describes the page the way the
    # linking site sees it.
    on_page_terms = len(pc_terms)
    for anchor in raw.anchor_texts:
        pc_terms.extend(
            (term, TextLocation.ANCHOR) for term in analyzer.analyze(anchor)
        )
    return PageAnalysis(pc_terms, fc_terms, scan.attribute_count, on_page_terms)


# ----------------------------------------------------------------------
# Worker protocol.  Workers get the analyzer once via the pool
# initializer (one pickle per worker, not per chunk); each worker keeps
# its own stem cache warm across chunks.  Per-page exceptions become
# ('err', ...) markers so the parent can raise a typed IngestError;
# KeyboardInterrupt is deliberately not caught.
# ----------------------------------------------------------------------

_WORKER_ANALYZER: Optional[TextAnalyzer] = None

_ChunkItem = Tuple[int, RawFormPage]
_ChunkResult = Tuple[str, int, object, object]  # ('ok'|'err', index, payload, url)


def _init_worker(analyzer: TextAnalyzer) -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = analyzer


def _analyze_chunk_with(
    analyzer: TextAnalyzer, chunk: Sequence[_ChunkItem]
) -> List[_ChunkResult]:
    out: List[_ChunkResult] = []
    for index, raw in chunk:
        try:
            out.append(("ok", index, analyze_form_page(raw, analyzer), raw.url))
        except Exception as exc:
            out.append(("err", index, f"{type(exc).__name__}: {exc}", raw.url))
    return out


def _analyze_chunk(chunk: Sequence[_ChunkItem]) -> List[_ChunkResult]:
    assert _WORKER_ANALYZER is not None, "worker initializer did not run"
    return _analyze_chunk_with(_WORKER_ANALYZER, chunk)


def _chunked(items: Sequence[T], size: int) -> List[Sequence[T]]:
    return [items[start:start + size] for start in range(0, len(items), size)]


def _run_pool(
    workers: int,
    analyzer: TextAnalyzer,
    pending: List[_ChunkItem],
) -> List[_ChunkResult]:
    """Run the map phase on a process pool.

    The pool is always shut down — including on ``KeyboardInterrupt``,
    where queued chunks are cancelled before the interrupt propagates.
    """
    # ~4 chunks per worker (load balancing), capped so pickled payloads
    # stay small.
    pages_per_chunk = max(1, min(32, -(-len(pending) // (workers * 4))))
    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(analyzer,)
    )
    results: List[_ChunkResult] = []
    try:
        for chunk_out in executor.map(
            _analyze_chunk, _chunked(pending, pages_per_chunk)
        ):
            results.extend(chunk_out)
    except KeyboardInterrupt:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    return results


def analyze_pages(
    raw_pages: Sequence[RawFormPage],
    analyzer: TextAnalyzer,
    config: Optional[ParallelConfig] = None,
    memory_cache: Optional[AnalysisCache] = None,
    stats: Optional[IngestStats] = None,
) -> List[PageAnalysis]:
    """The map phase over a collection, in input order.

    Analyses in ``memory_cache`` are reused when ``config.use_cache``
    allows; only the misses are analyzed, serially or on a process pool
    as :meth:`ParallelConfig.pool_size` decides.  The returned list is
    index-aligned with ``raw_pages`` regardless of completion order.
    """
    config = config or ParallelConfig()
    stats = stats if stats is not None else IngestStats()
    started = time.perf_counter()
    n = len(raw_pages)
    results: List[Optional[PageAnalysis]] = [None] * n
    keys: List[Optional[str]] = [None] * n

    pending: List[_ChunkItem] = []
    caching = config.use_cache and memory_cache is not None
    if caching:
        for index, raw in enumerate(raw_pages):
            key = page_analysis_key(raw)
            keys[index] = key
            hit = memory_cache.get(key)
            if hit is not None:
                results[index] = hit
                stats.cache_hits += 1
            else:
                pending.append((index, raw))
    else:
        pending = list(enumerate(raw_pages))

    workers = config.pool_size(len(pending))
    if workers == 1:
        mapped: List[_ChunkResult] = _analyze_chunk_with(analyzer, pending)
    else:
        mapped = _run_pool(workers, analyzer, pending)

    for status, index, payload, url in mapped:
        if status == "err":
            raise IngestError(str(url), str(payload))
        results[index] = payload
        stats.pages_analyzed += 1
        if caching:
            memory_cache.put(keys[index], payload)

    stats.pages_total += n
    stats.map_seconds += time.perf_counter() - started
    stats.runs += 1
    stats.executor = "serial" if workers == 1 else "process"
    stats.workers = workers
    return results  # type: ignore[return-value]  # every slot is filled


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    config: Optional[ParallelConfig] = None,
) -> List[R]:
    """Order-preserving map on a thread pool of
    :meth:`ParallelConfig.pool_size` workers.

    A generic helper for call sites outside the vectorizer (e.g. webgen
    backlink harvesting).  Arbitrary callables run on threads — closures
    over graphs and engines rarely pickle.  A pool size of 1 calls
    ``fn`` inline.
    """
    config = config or ParallelConfig()
    workers = config.pool_size(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    executor = concurrent.futures.ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-pmap"
    )
    try:
        return list(executor.map(fn, items))
    except KeyboardInterrupt:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        executor.shutdown()
