"""The map phase of parallel ingestion: raw HTML -> located-term analyses.

:func:`analyze_form_page` is the single source of truth for per-page
text analysis — the vectorizer's serial path and the process-pool
workers both run exactly this function, which is what makes the
parallel path bit-identical to the serial one:

* term runs keep original document order (so LOC-weighted TFs
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
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.form_page import RawFormPage
from repro.html.text_extract import TextLocation, scan_page
from repro.parallel.config import ParallelConfig
from repro.text.analyzer import TextAnalyzer
from repro.vsm.weights import TermRun

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
    parsing that vector building needs.  Picklable.

    ``runs`` holds one :data:`~repro.vsm.weights.TermRun` per located
    text fragment with at least one term, in scan order, then one
    ``ANCHOR`` run per harvested anchor text.  PC is every run, FC the
    runs inside a form.
    """

    runs: List[TermRun]
    attribute_count: int
    on_page_terms: int

    @cached_property
    def fc_runs(self) -> List[TermRun]:
        """The runs of the form-content (FC) space, built on first use."""
        return [run for run in self.runs if run[1]]

    @property
    def form_term_count(self) -> int:
        """Terms inside the page's forms (Table 1's form size)."""
        return sum(len(terms) for _, inside, terms in self.runs if inside)


@dataclass
class IngestStats:
    """Cumulative ingestion instrumentation (per vectorizer)."""

    pages_total: int = 0        # pages run through text analysis
    map_seconds: float = 0.0    # wall time of the map phase
    executor: str = "serial"    # "serial" | "process", most recent run
    workers: int = 1

    def describe(self) -> str:
        return (
            f"{self.executor} x{self.workers}: {self.pages_total} pages, "
            f"{self.map_seconds:.2f}s map"
        )


def analyze_form_page(raw: RawFormPage, analyzer: TextAnalyzer) -> PageAnalysis:
    """Analyze one raw page: scan located text, tokenize, stem.

    This is the Section 2.1 construction up to (but excluding) the
    LOC factors and the corpus-relative IDF weighting.  ``on_page_terms``
    counts only the page's own visible terms — harvested anchor text
    (the trailing runs) is excluded, since Table 1 reasons about
    on-page text.  ``attribute_count`` is the largest form's: a page can
    embed several forms (nav search + the database form), and the
    database form is normally the largest.
    """
    scan = scan_page(raw.html)
    analyze = analyzer.analyze
    runs: List[TermRun] = []
    on_page_terms = 0
    for fragment in scan.fragments:
        terms = analyze(fragment.text)
        if terms:
            runs.append((fragment.location, fragment.inside_form, terms))
            on_page_terms += len(terms)
    # Incoming anchor text (when harvested) joins the page context with
    # the ANCHOR location weight — it describes the page the way the
    # linking site sees it.
    for anchor in raw.anchor_texts:
        terms = analyze(anchor)
        if terms:
            runs.append((TextLocation.ANCHOR, False, terms))
    return PageAnalysis(runs, scan.attribute_count, on_page_terms)


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
    stats: Optional[IngestStats] = None,
) -> List[PageAnalysis]:
    """The map phase over a collection, in input order.

    Every page is analyzed, serially or on a process pool as
    :meth:`ParallelConfig.pool_size` decides.  The returned list is
    index-aligned with ``raw_pages`` regardless of completion order.
    """
    config = config or ParallelConfig()
    stats = stats if stats is not None else IngestStats()
    started = time.perf_counter()
    n = len(raw_pages)
    results: List[Optional[PageAnalysis]] = [None] * n

    pending: List[_ChunkItem] = list(enumerate(raw_pages))
    workers = config.pool_size(n)
    if workers == 1:
        mapped: List[_ChunkResult] = _analyze_chunk_with(analyzer, pending)
    else:
        mapped = _run_pool(workers, analyzer, pending)

    for status, index, payload, url in mapped:
        if status == "err":
            raise IngestError(str(url), str(payload))
        results[index] = payload

    stats.pages_total += n
    stats.map_seconds += time.perf_counter() - started
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
