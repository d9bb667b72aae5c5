"""Vectorizing raw form pages over the FC and PC feature spaces.

The vectorizer performs the Section 2.1 construction:

1. parse the HTML and pull out every visible text fragment with its
   location (title / option / anchor / body) and whether it lies inside a
   ``<form>`` element;
2. analyze the text (tokenize, drop stopwords, Porter-stem);
3. build per-feature-space corpus statistics over the whole collection
   (document frequencies, plus whatever else the active
   :class:`~repro.vsm.schemes.WeightingScheme` tracks);
4. emit, for every page, the scheme's weight vectors for FC (terms
   inside the form) and PC (all page terms) — Equation 1 under the
   default :class:`~repro.vsm.schemes.Eq1Scheme`, BM25 under
   :class:`~repro.vsm.schemes.BM25Scheme` (docs/RANKING.md).

Corpus statistics are collection-relative, so the vectorizer must see
the full collection before any vector exists: call
:meth:`FormPageVectorizer.fit_transform` once over the corpus, then
(optionally) :meth:`transform_new` for pages that arrive later
(Section 5: classifying new sources against built clusters).

Steps 1-2 (the CPU-heavy map phase) run through
:mod:`repro.parallel.ingest` under the vectorizer's
:class:`~repro.parallel.config.ParallelConfig` — serially or on a
process pool — and per-page analyses are memoized in memory by content
hash, so re-fits and the service's retry path skip re-parsing unchanged
pages.
Parallel and cached output is bit-identical to serial output (see
docs/INGESTION.md for the determinism contract).
"""

import threading
from typing import List, Optional, Sequence

from repro.core.form_page import FormPage, RawFormPage
from repro.parallel.cache import AnalysisCache, page_analysis_key
from repro.parallel.config import ParallelConfig
from repro.parallel.ingest import (
    IngestError,
    IngestStats,
    PageAnalysis,
    analyze_form_page,
    analyze_pages,
)
from repro.text.analyzer import TextAnalyzer
from repro.vsm.corpus import CorpusStats
from repro.vsm.schemes import (
    SchemeSpec,
    SpaceStats,
    resolve_scheme,
    scheme_from_dict,
)
from repro.vsm.weights import LocationWeights, located_term_frequencies


class FormPageVectorizer:
    """Builds FC/PC vectors for a collection of raw form pages.

    ``scheme`` selects the term-weighting formula — a name accepted by
    :func:`~repro.vsm.schemes.resolve_scheme` (``"auto"`` / ``"off"`` /
    ``"eq1"`` / ``"bm25"`` / ``"tf"``) or a
    :class:`~repro.vsm.schemes.WeightingScheme` instance for tuned
    parameters.  The default is Equation 1, bit-identical to the
    pre-seam vectorizer.
    """

    def __init__(
        self,
        location_weights: Optional[LocationWeights] = None,
        analyzer: Optional[TextAnalyzer] = None,
        max_backlinks: int = 100,
        parallel: Optional[ParallelConfig] = None,
        scheme: SchemeSpec = None,
    ) -> None:
        self.location_weights = location_weights or LocationWeights()
        self.analyzer = analyzer or TextAnalyzer()
        self.max_backlinks = max_backlinks
        self.parallel = parallel or ParallelConfig()
        self.scheme = resolve_scheme(scheme)
        self.fc_stats = SpaceStats()
        self.pc_stats = SpaceStats()
        # Per-space emit contexts (e.g. IDF maps), prepared after fit
        # and invalidated by it; transform_new reuses them.
        self._pc_context = None
        self._fc_context = None
        self._contexts_ready = False
        self._fitted = False
        # Per-page analysis memo (content-hash keyed): fit_transform
        # fills it, transform_new reuses it — the service /classify
        # retry path re-analyzes nothing.
        self._analysis_cache = AnalysisCache()
        self.ingest_stats = IngestStats()
        # transform_new runs concurrently on the HTTP server's worker
        # pool; the analysis cache locks itself, this lock keeps
        # the stats counters consistent.
        self._stats_lock = threading.Lock()

    # ----------------------------------------------------------------
    # Corpus-statistics views.
    # ----------------------------------------------------------------

    @property
    def pc_corpus(self) -> CorpusStats:
        """PC document frequencies (view into the PC space stats)."""
        return self.pc_stats.corpus

    @property
    def fc_corpus(self) -> CorpusStats:
        """FC document frequencies (view into the FC space stats)."""
        return self.fc_stats.corpus

    # ----------------------------------------------------------------
    # Per-page text analysis.
    # ----------------------------------------------------------------

    def _analyze_page(self, raw: RawFormPage) -> PageAnalysis:
        """Analyze one page, reusing any cached analysis for its content."""
        key = None
        if self.parallel.use_cache:
            key = page_analysis_key(raw)
            hit = self._analysis_cache.get(key)
            if hit is not None:
                with self._stats_lock:
                    self.ingest_stats.pages_total += 1
                    self.ingest_stats.cache_hits += 1
                return hit
        try:
            analysis = analyze_form_page(raw, self.analyzer)
        except Exception as exc:
            raise IngestError(raw.url, f"{type(exc).__name__}: {exc}") from exc
        with self._stats_lock:
            self.ingest_stats.pages_total += 1
            self.ingest_stats.pages_analyzed += 1
        if key is not None:
            self._analysis_cache.put(key, analysis)
        return analysis

    # ----------------------------------------------------------------
    # Fitting and transforming.
    # ----------------------------------------------------------------

    def fit_transform(self, raw_pages: Sequence[RawFormPage]) -> List[FormPage]:
        """Vectorize a full collection (computes corpus IDF, then vectors).

        The map phase (parse + tokenize + stem) runs under the
        vectorizer's :class:`ParallelConfig`; the document-frequency
        merge happens here, in the parent, in page order — the exact
        call sequence of the serial path — so vocabulary order, DF
        counts, and every float weight are identical whether a pool or
        the cache produced the analyses.
        """
        analyzed = analyze_pages(
            raw_pages,
            self.analyzer,
            config=self.parallel,
            memory_cache=self._analysis_cache,
            stats=self.ingest_stats,
        )

        # Pass 1 — per-space scheme statistics (document frequencies,
        # plus e.g. BM25's length totals), folded in page order.
        scheme = self.scheme
        for analysis in analyzed:
            scheme.observe(
                self.pc_stats, analysis.pc_terms, self.location_weights
            )
            scheme.observe(
                self.fc_stats, analysis.fc_terms, self.location_weights
            )
        self._fitted = True

        # Pass 2 — the scheme's weight vectors, over per-space emit
        # contexts prepared once (for Equation 1: the materialized IDF
        # map, the same ``log(N / n_i)`` floats as per-term ``idf``
        # calls, minus the per-lookup method dispatch).
        pc_context, fc_context = self._prepare_contexts()
        return [
            self._build_form_page(
                raw, analysis, pc_context=pc_context, fc_context=fc_context
            )
            for raw, analysis in zip(raw_pages, analyzed)
        ]

    def _prepare_contexts(self):
        """(Re)build the per-space emit contexts after a fit or load."""
        self._pc_context = self.scheme.prepare(self.pc_stats)
        self._fc_context = self.scheme.prepare(self.fc_stats)
        self._contexts_ready = True
        return self._pc_context, self._fc_context

    # ----------------------------------------------------------------
    # Streaming ingestion hooks (repro.stream; docs/INGESTION.md).
    #
    # The batch contract above observes the *whole* collection before
    # any vector exists.  The streaming path splits the three phases
    # apart: ``stream_observe`` folds documents into the per-space
    # stats online, ``reprepare`` refreshes the frozen emit contexts at
    # re-weight events (the drift policy decides when), and
    # ``emit_vectors`` emits against whatever context is current —
    # deliberately NOT auto-refreshing, because the staleness between
    # re-weights is the quantified relaxation the drift tracker bounds.
    # ----------------------------------------------------------------

    @property
    def contexts_ready(self) -> bool:
        """Whether prepared emit contexts exist (streaming can emit)."""
        return self._contexts_ready

    def stream_observe(self, analysis: PageAnalysis) -> None:
        """Fold one analyzed page into the per-space statistics without
        touching the prepared emit contexts."""
        self.scheme.observe(
            self.pc_stats, analysis.pc_terms, self.location_weights
        )
        self.scheme.observe(
            self.fc_stats, analysis.fc_terms, self.location_weights
        )
        self._fitted = True

    def reprepare(self, min_df: int = 1, vocab_budget: int = 0):
        """Refresh the emit contexts from the current statistics.

        ``min_df`` > 1 first prunes rarer terms from both DF tables when
        a table exceeds ``vocab_budget`` entries (0 = always prune) —
        the streaming vocabulary floor that keeps the prepared contexts,
        and hence the interned vocabulary, from growing with hapax terms
        (site brands) an unbounded stream produces at O(pages).
        Returns ``(pc_context, fc_context)``.
        """
        if min_df > 1:
            for stats in (self.pc_stats, self.fc_stats):
                table = stats.corpus.document_frequencies()
                if vocab_budget <= 0 or len(table) > vocab_budget:
                    stats.corpus.prune_rare(min_df)
        return self._prepare_contexts()

    def emit_vectors(self, pc_tf, fc_tf):
        """Emit one page's (pc, fc) vectors from LOC-weighted TF counters
        against the *current frozen* contexts.

        Raises unless :meth:`reprepare` (or a batch fit) ran first —
        emitting without a context would silently fall back to
        per-emission exact statistics, which both costs O(vocab) per
        page and breaks the drift-bound contract.
        """
        if not self._contexts_ready:
            raise RuntimeError(
                "no prepared emit contexts; call reprepare() before emitting"
            )
        return (
            self.scheme.vector(pc_tf, self.pc_stats, self._pc_context),
            self.scheme.vector(fc_tf, self.fc_stats, self._fc_context),
        )

    def stream_emit(self, raw: RawFormPage, analysis: PageAnalysis) -> FormPage:
        """Build a :class:`FormPage` against the current frozen contexts."""
        if not self._contexts_ready:
            raise RuntimeError(
                "no prepared emit contexts; call reprepare() before emitting"
            )
        return self._build_form_page(
            raw,
            analysis,
            pc_context=self._pc_context,
            fc_context=self._fc_context,
        )

    # ----------------------------------------------------------------
    # State export / import (snapshot support).
    #
    # Everything :meth:`transform_new` consumes is exported: the two
    # corpus statistics, the LOC policy, and the backlink cap.  The
    # analyzer is rebuilt from library defaults — it is a pure function
    # of its (default) stopword list and stemmer, so a fresh instance
    # reproduces the same terms.  Counts are integers and weights plain
    # floats, so a JSON round trip of this state yields bit-identical
    # vectors for any page.
    # ----------------------------------------------------------------

    def export_state(self) -> dict:
        """The fitted state as JSON-safe data (for snapshots).

        The ``pc_corpus`` / ``fc_corpus`` keys keep their pre-seam
        shape, and a default-scheme export adds only the (ignorable)
        ``scheme`` / length keys — so Equation-1 state stays loadable by
        pre-seam readers, while non-default schemes are refused by them
        at the snapshot layer's version gate.
        """
        if not self._fitted:
            raise RuntimeError("vectorizer must be fitted before export_state")
        return {
            "max_backlinks": self.max_backlinks,
            "location_weights": self.location_weights.to_dict(),
            "scheme": self.scheme.to_dict(),
            "pc_corpus": self.pc_corpus.to_dict(),
            "fc_corpus": self.fc_corpus.to_dict(),
            "pc_total_weighted_length": self.pc_stats.total_weighted_length,
            "fc_total_weighted_length": self.fc_stats.total_weighted_length,
        }

    @classmethod
    def from_state(
        cls, state: dict, parallel: Optional[ParallelConfig] = None
    ) -> "FormPageVectorizer":
        """Rebuild a fitted vectorizer from :meth:`export_state` data.

        The result classifies new pages (``transform_new``) exactly as
        the original would; it must not be re-fitted.  State without a
        ``scheme`` entry (exported before the scheme seam) loads as
        Equation 1 — which is exactly how it was built.  Unknown scheme
        names raise :class:`~repro.vsm.schemes.UnknownSchemeError`.
        """
        vectorizer = cls(
            location_weights=LocationWeights.from_dict(
                state.get("location_weights", {})
            ),
            max_backlinks=int(state.get("max_backlinks", 100)),
            parallel=parallel,
            scheme=scheme_from_dict(dict(state.get("scheme", {"name": "eq1"}))),
        )
        vectorizer.pc_stats = SpaceStats(
            CorpusStats.from_dict(state.get("pc_corpus", {})),
            float(state.get("pc_total_weighted_length", 0.0)),
        )
        vectorizer.fc_stats = SpaceStats(
            CorpusStats.from_dict(state.get("fc_corpus", {})),
            float(state.get("fc_total_weighted_length", 0.0)),
        )
        vectorizer._fitted = True
        return vectorizer

    def transform_new(self, raw: RawFormPage) -> FormPage:
        """Vectorize a page against the already-fitted corpus statistics.

        Terms unseen during fitting get IDF 0 and drop out; this is the
        standard frozen-vocabulary treatment for scoring new documents.
        A page whose content was already analyzed (during
        ``fit_transform`` or an earlier ``transform_new``) reuses the
        cached analysis instead of re-parsing.
        """
        if not self._fitted:
            raise RuntimeError("vectorizer must be fitted before transform_new")
        if self._contexts_ready:
            pc_context, fc_context = self._pc_context, self._fc_context
        else:  # first transform after from_state: prepare once, reuse
            pc_context, fc_context = self._prepare_contexts()
        return self._build_form_page(
            raw,
            self._analyze_page(raw),
            pc_context=pc_context,
            fc_context=fc_context,
        )

    def _build_form_page(
        self,
        raw: RawFormPage,
        analysis: PageAnalysis,
        pc_context=None,
        fc_context=None,
    ) -> FormPage:
        pc_tf = located_term_frequencies(analysis.pc_terms, self.location_weights)
        fc_tf = located_term_frequencies(analysis.fc_terms, self.location_weights)
        return FormPage(
            url=raw.url,
            pc=self.scheme.vector(pc_tf, self.pc_stats, pc_context),
            fc=self.scheme.vector(fc_tf, self.fc_stats, fc_context),
            backlinks=frozenset(raw.backlinks[: self.max_backlinks]),
            label=raw.label,
            form_term_count=len(analysis.fc_terms),
            page_term_count=analysis.on_page_terms,
            attribute_count=analysis.attribute_count,
        )
