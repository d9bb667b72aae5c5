"""The map phase of parallel ingestion: raw HTML -> located-term analyses.

:func:`analyze_form_page` is the single source of truth for per-page
text analysis — the vectorizer's serial path, the thread and process
workers, and the disk cache all produce or replay exactly this
function's output, which is what makes the parallel path bit-identical
to the serial one:

* term lists keep original document order (so LOC-weighted TF counters
  accumulate in the same order);
* the parent merges document frequencies itself, in page order, through
  the same ``CorpusStats.add_document`` call the serial path uses (so
  vocabulary insertion order and DF counts match exactly);
* stemming and tokenization are pure functions, so *where* they run
  (worker process, thread, parent) cannot change their output.

Failures inside a worker surface as a typed :class:`IngestError` naming
the page URL; ``KeyboardInterrupt`` shuts the pool down and propagates.
"""

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.form_page import LocatedTerm, RawFormPage
from repro.html.text_extract import TextLocation, scan_page
from repro.parallel.cache import (
    AnalysisCache,
    DiskAnalysisCache,
    analyzer_fingerprint,
    page_analysis_key,
)
from repro.parallel.config import ParallelConfig, ResolvedPlan
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
    parsing that vector building needs.  Picklable and JSON-exact."""

    pc_terms: List[LocatedTerm]
    fc_terms: List[LocatedTerm]
    attribute_count: int
    on_page_terms: int


@dataclass
class IngestStats:
    """Cumulative ingestion instrumentation (per vectorizer)."""

    pages_total: int = 0        # pages requested through analyze_pages
    pages_analyzed: int = 0     # actually parsed (cache misses)
    memory_cache_hits: int = 0
    disk_cache_hits: int = 0
    map_seconds: float = 0.0    # wall time of the map phase
    runs: int = 0
    executor: str = "serial"    # plan of the most recent run
    workers: int = 1
    chunk_size: int = 0

    @property
    def cache_hits(self) -> int:
        return self.memory_cache_hits + self.disk_cache_hits

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
            "memory_cache_hits": self.memory_cache_hits,
            "disk_cache_hits": self.disk_cache_hits,
            "map_seconds": self.map_seconds,
            "runs": self.runs,
            "executor": self.executor,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
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
# Worker protocol.  Process workers get the analyzer once via the pool
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
    plan: ResolvedPlan,
    analyzer: TextAnalyzer,
    pending: List[_ChunkItem],
) -> List[_ChunkResult]:
    """Run the map phase on a thread or process pool.

    The pool is always shut down — including on ``KeyboardInterrupt``,
    where queued chunks are cancelled before the interrupt propagates.
    """
    chunks = _chunked(pending, plan.chunk_size)
    if plan.kind == "process":
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=plan.workers,
            initializer=_init_worker,
            initargs=(analyzer,),
        )
        run_chunk: Callable = _analyze_chunk
    else:
        executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=plan.workers, thread_name_prefix="repro-ingest"
        )
        run_chunk = lambda chunk: _analyze_chunk_with(analyzer, chunk)  # noqa: E731
    results: List[_ChunkResult] = []
    try:
        for chunk_out in executor.map(run_chunk, chunks):
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
    disk_cache: Optional[DiskAnalysisCache] = None,
    stats: Optional[IngestStats] = None,
) -> List[PageAnalysis]:
    """The map phase over a collection, in input order.

    Cached analyses (memory first, then disk) are reused when
    ``config.use_cache`` allows; only the misses go to the executor the
    resolved plan picked.  The returned list is index-aligned with
    ``raw_pages`` regardless of executor or completion order.
    """
    config = config or ParallelConfig()
    stats = stats if stats is not None else IngestStats()
    started = time.perf_counter()
    n = len(raw_pages)
    results: List[Optional[PageAnalysis]] = [None] * n
    keys: List[Optional[str]] = [None] * n

    pending: List[_ChunkItem] = []
    caching = config.use_cache and (
        memory_cache is not None or disk_cache is not None
    )
    if caching:
        fingerprint = analyzer_fingerprint(analyzer)
        for index, raw in enumerate(raw_pages):
            key = page_analysis_key(raw, fingerprint)
            keys[index] = key
            hit = memory_cache.get(key) if memory_cache is not None else None
            if hit is not None:
                results[index] = hit
                stats.memory_cache_hits += 1
                continue
            if disk_cache is not None:
                hit = disk_cache.get(key)
                if hit is not None:
                    results[index] = hit
                    stats.disk_cache_hits += 1
                    if memory_cache is not None:
                        memory_cache.put(key, hit)
                    continue
            pending.append((index, raw))
    else:
        pending = list(enumerate(raw_pages))

    plan = config.resolve(len(pending))
    if plan.is_serial:
        mapped: List[_ChunkResult] = _analyze_chunk_with(analyzer, pending)
    else:
        mapped = _run_pool(plan, analyzer, pending)

    for status, index, payload, url in mapped:
        if status == "err":
            raise IngestError(str(url), str(payload))
        analysis = payload
        results[index] = analysis
        stats.pages_analyzed += 1
        if caching and keys[index] is not None:
            if memory_cache is not None:
                memory_cache.put(keys[index], analysis)
            if disk_cache is not None:
                disk_cache.put(keys[index], analysis)

    stats.pages_total += n
    stats.map_seconds += time.perf_counter() - started
    stats.runs += 1
    stats.executor = plan.kind
    stats.workers = plan.workers
    stats.chunk_size = plan.chunk_size
    return results  # type: ignore[return-value]  # every slot is filled


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    config: Optional[ParallelConfig] = None,
) -> List[R]:
    """Order-preserving map under a :class:`ParallelConfig` plan.

    A generic helper for call sites outside the vectorizer (e.g. webgen
    backlink harvesting).  Only the thread executor is offered for
    arbitrary callables — closures over graphs and engines rarely
    pickle — so a ``process`` plan degrades to threads here.  Serial
    plans call ``fn`` inline.
    """
    config = config or ParallelConfig()
    plan = config.resolve(len(items))
    if plan.is_serial:
        return [fn(item) for item in items]
    executor = concurrent.futures.ThreadPoolExecutor(
        max_workers=plan.workers, thread_name_prefix="repro-pmap"
    )
    try:
        return list(executor.map(fn, items))
    except KeyboardInterrupt:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        executor.shutdown()
