"""Streaming ingestion: analyze → observe → drift-gated re-weight → emit.

The batch vectorizer's contract is "see the whole collection, then
emit".  :class:`StreamingIngestor` relaxes it per batch:

1. analyze the batch (parse + tokenize + stem — the same map phase as
   batch ingestion);
2. fold every page into the per-space statistics
   (:meth:`~repro.core.vectorizer.FormPageVectorizer.stream_observe`)
   while the per-space :class:`~repro.vsm.schemes.IdfDriftTracker`\\ s
   absorb the same documents;
3. if either space's IDF drift bound exceeds
   :attr:`~repro.stream.config.StreamConfig.drift_threshold` (or no
   context exists yet), **re-weight**: prune rare terms when over the
   vocabulary budget, re-prepare the frozen emit contexts, re-arm both
   trackers, and notify listeners (the streaming organizer re-emits its
   reservoir here);
4. emit the batch against the now-current frozen contexts.

Because the drift check runs *after* observing and *before* emitting,
every emitted in-vocabulary weight is within ``LOC * TF *
drift_threshold`` of the exact Equation-1 weight over all pages
observed so far — the quantified relaxation tested in
``tests/test_stream.py``.  Terms first seen after the active snapshot
drop out of emission until the next re-weight (the frozen-vocabulary
treatment ``transform_new`` applies to new pages).  With
``drift_threshold=0`` and ``batch_size=1`` the path degenerates to
exact prefix statistics.
"""

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.form_page import FormPage, RawFormPage
from repro.core.vectorizer import FormPageVectorizer
from repro.stream.config import StreamConfig
from repro.vsm.schemes import IdfDriftTracker


@dataclass
class StreamedPage:
    """One emitted page plus what a re-weight needs to re-emit it.

    The LOC-weighted TFs are kept (they are per-page and
    context-free) so reservoir members can be re-vectorized at re-weight
    events without retaining HTML or re-running analysis.
    """

    page: FormPage
    pc_tf: Dict[str, float]
    fc_tf: Dict[str, float]
    index: int

    @property
    def url(self) -> str:
        return self.page.url

    @property
    def label(self) -> Optional[str]:
        return self.page.label

    def reemit(self, vectorizer: FormPageVectorizer) -> "StreamedPage":
        """This page re-vectorized from its TFs under ``vectorizer``'s
        current contexts (everything else carried over)."""
        pc, fc = vectorizer.emit_vectors(self.pc_tf, self.fc_tf)
        return replace(self, page=replace(self.page, pc=pc, fc=fc))


@dataclass
class StreamStats:
    """Counters the CLI, gauges, and benchmarks report."""

    pages: int = 0
    batches: int = 0
    reweights: int = 0
    last_drift: float = 0.0
    pc_vocab: int = 0
    fc_vocab: int = 0
    pc_pruned: int = 0
    fc_pruned: int = 0

    def to_dict(self) -> dict:
        return {
            "pages": self.pages,
            "batches": self.batches,
            "reweights": self.reweights,
            "last_drift": self.last_drift,
            "pc_vocab": self.pc_vocab,
            "fc_vocab": self.fc_vocab,
            "pc_pruned": self.pc_pruned,
            "fc_pruned": self.fc_pruned,
        }


class StreamingIngestor:
    """Drives a page stream through observe → re-weight → emit batches.

    ``vectorizer`` defaults to a fresh Equation-1
    :class:`~repro.core.vectorizer.FormPageVectorizer`.  Pass a
    configured vectorizer to stream under a different scheme or LOC
    policy.
    """

    def __init__(
        self,
        config: Optional[StreamConfig] = None,
        vectorizer: Optional[FormPageVectorizer] = None,
    ) -> None:
        self.config = config or StreamConfig()
        self.vectorizer = vectorizer or FormPageVectorizer()
        self.pc_tracker = IdfDriftTracker()
        self.fc_tracker = IdfDriftTracker()
        self.stats = StreamStats()
        self._reweight_listeners: List[Callable[["StreamingIngestor"], None]] = []

    def on_reweight(
        self, listener: Callable[["StreamingIngestor"], None]
    ) -> None:
        """Register a callback fired *after* each re-weight (contexts are
        current when it runs; the organizer re-emits its reservoir)."""
        self._reweight_listeners.append(listener)

    # ----------------------------------------------------------------
    # Drift and re-weighting.
    # ----------------------------------------------------------------

    def drift(self) -> float:
        """The worse of the two spaces' IDF-drift bounds."""
        return max(
            self.pc_tracker.drift(self.vectorizer.pc_stats),
            self.fc_tracker.drift(self.vectorizer.fc_stats),
        )

    def reweight(self) -> None:
        """Re-prepare the frozen emit contexts now (prune, re-arm, notify)."""
        vectorizer = self.vectorizer
        pc_before = len(vectorizer.pc_corpus.document_frequencies())
        fc_before = len(vectorizer.fc_corpus.document_frequencies())
        vectorizer.reprepare(
            min_df=self.config.min_df, vocab_budget=self.config.vocab_budget
        )
        self.pc_tracker.rearm(vectorizer.pc_stats)
        self.fc_tracker.rearm(vectorizer.fc_stats)
        self.stats.reweights += 1
        self.stats.pc_vocab = len(vectorizer.pc_corpus.document_frequencies())
        self.stats.fc_vocab = len(vectorizer.fc_corpus.document_frequencies())
        self.stats.pc_pruned += max(0, pc_before - self.stats.pc_vocab)
        self.stats.fc_pruned += max(0, fc_before - self.stats.fc_vocab)
        for listener in self._reweight_listeners:
            listener(self)

    # ----------------------------------------------------------------
    # Batch processing.
    # ----------------------------------------------------------------

    def process_batch(
        self, raw_pages: Sequence[RawFormPage]
    ) -> List[StreamedPage]:
        """Observe, maybe re-weight, then emit one batch of pages."""
        if not raw_pages:
            return []
        vectorizer = self.vectorizer
        analyses = [vectorizer._analyze_page(raw) for raw in raw_pages]
        for analysis in analyses:
            vectorizer.stream_observe(analysis)
            self.pc_tracker.absorb(
                vectorizer.pc_stats,
                {term for _, _, terms in analysis.runs for term in terms},
            )
            self.fc_tracker.absorb(
                vectorizer.fc_stats,
                {term for _, _, terms in analysis.fc_runs for term in terms},
            )
        drift = self.drift()
        self.stats.last_drift = drift
        if not vectorizer.contexts_ready or drift > self.config.drift_threshold:
            self.reweight()

        emitted: List[StreamedPage] = []
        for raw, analysis in zip(raw_pages, analyses):
            pc_tf, fc_tf = vectorizer.term_frequencies(analysis)
            pc_vec, fc_vec = vectorizer.emit_vectors(pc_tf, fc_tf)
            page = FormPage(
                url=raw.url,
                pc=pc_vec,
                fc=fc_vec,
                backlinks=frozenset(
                    raw.backlinks[: vectorizer.max_backlinks]
                ),
                label=raw.label,
                form_term_count=analysis.form_term_count,
                page_term_count=analysis.on_page_terms,
                attribute_count=analysis.attribute_count,
            )
            emitted.append(
                StreamedPage(
                    page=page,
                    pc_tf=pc_tf,
                    fc_tf=fc_tf,
                    index=self.stats.pages,
                )
            )
            self.stats.pages += 1
        self.stats.batches += 1
        return emitted

    def ingest(
        self, raw_pages: Iterable[RawFormPage]
    ) -> Iterator[List[StreamedPage]]:
        """Consume a page iterable lazily, yielding emitted batches.

        Never materializes more than ``config.batch_size`` raw pages at
        once — the whole point of the streaming path.
        """
        batch: List[RawFormPage] = []
        for raw in raw_pages:
            batch.append(raw)
            if len(batch) >= self.config.batch_size:
                yield self.process_batch(batch)
                batch = []
        if batch:
            yield self.process_batch(batch)


__all__ = ["StreamedPage", "StreamStats", "StreamingIngestor"]
