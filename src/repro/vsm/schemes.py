"""Pluggable term-weighting schemes — the ranking seam behind the vectorizer.

The paper hard-wires Equation 1 (location-boosted TF-IDF); this module
turns the three moments where a weighting scheme acts into a protocol,
so alternatives plug in without touching the vectorizer:

1. **fit** — :meth:`WeightingScheme.observe` folds one document's
   term runs (:data:`~repro.vsm.weights.TermRun`) into per-space
   :class:`SpaceStats` (document frequencies, and whatever else the
   scheme needs — BM25 also tracks total weighted length for
   ``avgdl``).  The vectorizer calls this in page order in the parent
   process, so pooled map/reduce ingestion merges scheme stats exactly
   like DF today (docs/INGESTION.md).
2. **prepare** — after the whole collection is observed,
   :meth:`WeightingScheme.prepare` materializes a per-space emit
   context (e.g. the IDF map) used for both batch vectorization and
   later ``transform_new`` calls.
3. **emit** — :meth:`WeightingScheme.vector` turns one page's
   LOC-weighted term frequencies (from the same runs, by
   :func:`~repro.vsm.weights.run_term_frequencies`) into a
   :class:`SparseVector`.

Schemes are named (``"eq1"``, ``"bm25"``, ``"tf"``) and serialize to
JSON-safe dicts, so fitted state survives snapshots; ``"auto"`` resolves
to Equation 1 and ``"off"`` to plain LOC-weighted TF (corpus weighting
disabled).  :class:`Eq1Scheme` routes through the exact
:func:`~repro.vsm.weights.tf_idf_vector` call sequence the vectorizer
used before this seam existed, so the default is bit-identical —
pinned by ``tests/test_schemes.py`` over the 454-page reference corpus.

BM25 emits scores max-normalized to [0, 1] **per feature space** before
the PC/FC combination, so Equation-3 mixing (and any cross-shard top-k
merge) compares like with like; see docs/RANKING.md.
"""

import math
from itertools import chain, repeat
from typing import (
    Any,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.options import SCHEME_CHOICES, resolve_auto, validate_option
from repro.vsm.corpus import CorpusStats
from repro.vsm.vector import SparseVector
from repro.vsm.weights import LocationWeights, TermRun, tf_idf_vector

TermRuns = Sequence[TermRun]
WeightedTF = Mapping[str, float]


def _run_terms(runs: TermRuns) -> Iterable[str]:
    """Every term of ``runs``, one per occurrence, in scan order."""
    return chain.from_iterable([terms for _, _, terms in runs])


class UnknownSchemeError(ValueError):
    """A scheme name (from config, CLI, or snapshot state) is unknown.

    Carries ``name`` so snapshot loaders can wrap it in their own
    structured errors.
    """

    def __init__(self, name: object) -> None:
        self.name = name
        super().__init__(
            f"unknown weighting scheme {name!r}; "
            f"expected one of {SCHEME_CHOICES}"
        )


class SpaceStats:
    """Fit-time statistics for one feature space (PC or FC).

    Wraps the Equation-1 :class:`CorpusStats` (document count + DF) and
    adds the total LOC-weighted document length BM25 needs for
    ``avgdl``.  Counts are integers and the length a plain float, so a
    JSON round trip reproduces every derived weight bit-for-bit.
    """

    __slots__ = ("corpus", "total_weighted_length")

    def __init__(
        self,
        corpus: Optional[CorpusStats] = None,
        total_weighted_length: float = 0.0,
    ) -> None:
        self.corpus = corpus if corpus is not None else CorpusStats()
        self.total_weighted_length = float(total_weighted_length)

    @property
    def document_count(self) -> int:
        return self.corpus.document_count

    @property
    def average_length(self) -> float:
        """Mean LOC-weighted document length (0 when nothing observed)."""
        n = self.corpus.document_count
        if n == 0:
            return 0.0
        return self.total_weighted_length / n


class IdfDriftTracker:
    """An upper bound on per-term IDF drift since the last re-weight.

    The streaming relaxation (docs/INGESTION.md): pages are emitted
    against the IDF map *prepared* at the last re-weight, while the
    per-space :class:`SpaceStats` keep absorbing documents.  For a term
    in the prepared map, the frozen-vs-current error is

        ``idf0 - idf = log(df/df0) - log(N/N0)``

    whose two parts are both non-negative (document counts only grow),
    so ``|idf0 - idf| <= max(log(N/N0), max_t log(df_t/df0_t))`` — the
    quantity :meth:`drift` maintains.  Both parts update in O(distinct
    terms per document): :meth:`absorb` is called right after the
    scheme's ``observe`` folded a document in, and :meth:`rearm`
    re-snapshots after every ``prepare``.

    The re-weight policy — re-prepare when :meth:`drift` exceeds a
    threshold *before* emitting a batch — therefore guarantees that
    every emitted in-vocabulary weight ``LOC*TF*idf0`` is within
    ``LOC*TF*threshold`` of the exact Equation-1 weight over all
    documents observed so far.  Terms first seen after the snapshot are
    absent from the frozen map and drop out of emission entirely (the
    same frozen-vocabulary treatment ``transform_new`` applies); the
    next re-weight admits them.
    """

    __slots__ = ("_n0", "_df0", "_max_log_ratio")

    def __init__(self) -> None:
        self._n0 = 0
        self._df0: Dict[str, int] = {}
        self._max_log_ratio = 0.0

    def rearm(self, stats: SpaceStats) -> None:
        """Snapshot the stats a ``prepare`` was just run over."""
        self._n0 = stats.corpus.document_count
        self._df0 = dict(stats.corpus.document_frequencies())
        self._max_log_ratio = 0.0

    def absorb(self, stats: SpaceStats, distinct_terms: Iterable[str]) -> None:
        """Fold one just-observed document's distinct terms in."""
        df0 = self._df0
        if not df0:
            return
        corpus = stats.corpus
        worst = self._max_log_ratio
        for term in distinct_terms:
            base = df0.get(term)
            if base:
                ratio = math.log(corpus.document_frequency(term) / base)
                if ratio > worst:
                    worst = ratio
        self._max_log_ratio = worst

    def drift(self, stats: SpaceStats) -> float:
        """The current bound on any prepared term's ``|idf0 - idf|``."""
        n = stats.corpus.document_count
        if self._n0 <= 0:
            return float("inf") if n > 0 else 0.0
        return max(math.log(n / self._n0), self._max_log_ratio)


@runtime_checkable
class WeightingScheme(Protocol):
    """The three-phase weighting contract the vectorizer codes against."""

    name: str

    def observe(
        self,
        stats: SpaceStats,
        runs: TermRuns,
        location_weights: LocationWeights,
    ) -> None:
        """Fold one document's term runs into ``stats`` (fit time)."""
        ...

    def prepare(self, stats: SpaceStats) -> Any:
        """Materialize the per-space emit context (e.g. an IDF map)."""
        ...

    def vector(
        self,
        weighted_tf: WeightedTF,
        stats: SpaceStats,
        context: Any = None,
    ) -> SparseVector:
        """Emit one page's weight vector from its LOC-weighted TFs."""
        ...

    def to_dict(self) -> dict:
        """Scheme identity + tunables as JSON-safe data (snapshots)."""
        ...


class Eq1Scheme:
    """Equation 1 — ``w_i = LOC_i * TF_i * log(N / n_i)`` — the default.

    Every call routes through the same :class:`CorpusStats` /
    :func:`tf_idf_vector` sequence the vectorizer used before the
    scheme seam, so vectors are bit-identical to the pre-seam build.
    """

    name = "eq1"

    def observe(
        self,
        stats: SpaceStats,
        runs: TermRuns,
        location_weights: LocationWeights,
    ) -> None:
        # Every occurrence in scan order, so the DF set (and hence the
        # DF table's insertion order) is built exactly as from a flat
        # term list.
        stats.corpus.add_document(_run_terms(runs))

    def prepare(self, stats: SpaceStats) -> Dict[str, float]:
        # idf_map() and per-term idf() compute log(N / n_i) from the
        # same integers, so preparing once is bit-identical to the old
        # per-term path transform_new used.
        return stats.corpus.idf_map()

    def vector(
        self,
        weighted_tf: WeightedTF,
        stats: SpaceStats,
        context: Optional[Dict[str, float]] = None,
    ) -> SparseVector:
        if context is not None:
            return tf_idf_vector(weighted_tf, stats.corpus, idf_map=context)
        return tf_idf_vector(weighted_tf, stats.corpus)

    def to_dict(self) -> dict:
        return {"name": self.name}


class BM25Scheme:
    """Okapi BM25 over LOC-weighted term frequencies, normalized per space.

    Per term: ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl/avgdl))``
    with ``idf = log(1 + (N - n_i + 0.5) / (n_i + 0.5))`` (the
    non-negative Lucene variant), ``tf`` the LOC-weighted frequency and
    ``dl`` the page's total LOC-weighted length in that space.

    Emitted vectors are max-normalized so every weight lies in (0, 1]
    — per feature space, *before* the Equation-3 PC/FC combination —
    which keeps the two spaces' contributions commensurable and makes
    cross-shard top-k merges well-defined (cosine itself is
    scale-invariant, so per-space similarities are unaffected).

    Terms outside the fitted vocabulary drop out, like Equation 1's
    frozen-vocabulary treatment of new pages.
    """

    name = "bm25"

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("bm25 k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("bm25 b must be in [0, 1]")
        self.k1 = float(k1)
        self.b = float(b)

    def observe(
        self,
        stats: SpaceStats,
        runs: TermRuns,
        location_weights: LocationWeights,
    ) -> None:
        stats.corpus.add_document(_run_terms(runs))
        # A sum of per-occurrence factors, not count * factor: ``sum``
        # rounds (and from Python 3.12 compensates) term by term.
        factor = location_weights.factor
        stats.total_weighted_length += sum(chain.from_iterable([
            repeat(factor(location), len(terms)) for location, _, terms in runs
        ]))

    def prepare(self, stats: SpaceStats) -> Dict[str, float]:
        n = stats.corpus.document_count
        if n == 0:
            return {}
        return {
            term: math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for term, df in stats.corpus.document_frequencies().items()
        }

    def vector(
        self,
        weighted_tf: WeightedTF,
        stats: SpaceStats,
        context: Optional[Dict[str, float]] = None,
    ) -> SparseVector:
        idf = context if context is not None else self.prepare(stats)
        dl = sum(weighted_tf.values())
        if dl <= 0.0 or not idf:
            return SparseVector()
        avgdl = stats.average_length
        # Degenerate corpus (no observed length): fall back to dl so the
        # length ratio is 1 and the formula degrades to saturation-only.
        length_norm = self.k1 * (
            1.0 - self.b + self.b * (dl / avgdl if avgdl > 0.0 else 1.0)
        )
        weights: Dict[str, float] = {}
        best = 0.0
        for term, tf in weighted_tf.items():
            term_idf = idf.get(term, 0.0)
            if term_idf <= 0.0:
                continue
            score = term_idf * (tf * (self.k1 + 1.0)) / (tf + length_norm)
            weights[term] = score
            if score > best:
                best = score
        if best > 0.0:
            # Divide (not multiply-by-inverse): the best term lands on
            # exactly 1.0, so the (0, 1] range is tight.
            weights = {term: score / best for term, score in weights.items()}
        return SparseVector(weights)

    def to_dict(self) -> dict:
        return {"name": self.name, "k1": self.k1, "b": self.b}


class TFScheme:
    """Corpus weighting off: plain LOC-weighted term frequencies.

    The ``"off"`` alias.  Still observes document frequencies (so a
    fitted vectorizer reports vocabulary sizes and can be re-weighted
    offline), but emission ignores them entirely — an ablation baseline
    for the A/B harness.
    """

    name = "tf"

    def observe(
        self,
        stats: SpaceStats,
        runs: TermRuns,
        location_weights: LocationWeights,
    ) -> None:
        stats.corpus.add_document(_run_terms(runs))

    def prepare(self, stats: SpaceStats) -> None:
        return None

    def vector(
        self,
        weighted_tf: WeightedTF,
        stats: SpaceStats,
        context: Any = None,
    ) -> SparseVector:
        return SparseVector(weighted_tf)

    def to_dict(self) -> dict:
        return {"name": self.name}


#: What users may put in ``CAFCConfig.scheme`` / pass as ``scheme=``.
SchemeSpec = Union[None, str, WeightingScheme]

_SCHEME_CLASSES = {
    Eq1Scheme.name: Eq1Scheme,
    BM25Scheme.name: BM25Scheme,
    TFScheme.name: TFScheme,
}


def resolve_scheme(spec: SchemeSpec) -> WeightingScheme:
    """Turn a scheme spec into a scheme instance.

    ``spec`` may be ``None`` or ``"auto"`` (Equation 1 — the paper's
    default), ``"off"`` (plain LOC-weighted TF), one of the scheme
    names (``"eq1"``, ``"bm25"``, ``"tf"``), or an existing
    :class:`WeightingScheme` instance (passed through, which is how
    tuned ``BM25Scheme(k1=..., b=...)`` objects are supplied).
    """
    if spec is None:
        return Eq1Scheme()
    if isinstance(spec, str):
        validate_option("scheme", spec, SCHEME_CHOICES)
        name = resolve_auto(spec, auto=Eq1Scheme.name, off=TFScheme.name)
        return _SCHEME_CLASSES[name]()
    if isinstance(spec, WeightingScheme):
        return spec
    raise TypeError(f"cannot resolve weighting scheme from {spec!r}")


def scheme_from_dict(state: dict) -> WeightingScheme:
    """Rebuild a scheme exported by ``to_dict`` (snapshot loading).

    Raises :class:`UnknownSchemeError` for names this build does not
    implement — the snapshot layer maps that to a structured
    :class:`~repro.datasets.store.DatasetFormatError`.
    """
    name = dict(state).get("name", Eq1Scheme.name)
    if name == BM25Scheme.name:
        return BM25Scheme(
            k1=float(state.get("k1", 1.2)), b=float(state.get("b", 0.75))
        )
    cls = _SCHEME_CLASSES.get(name)
    if cls is None:
        raise UnknownSchemeError(name)
    return cls()


__all__ = [
    "IdfDriftTracker",
    "SpaceStats",
    "WeightingScheme",
    "Eq1Scheme",
    "BM25Scheme",
    "TFScheme",
    "SchemeSpec",
    "UnknownSchemeError",
    "resolve_scheme",
    "scheme_from_dict",
]
