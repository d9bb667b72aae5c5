"""Reference arithmetic: the oracles the fast paths are pinned to.

Everything here computes one scalar
:class:`~repro.core.similarity.FormPageSimilarity` or
:func:`~repro.vsm.vector.cosine_similarity` call per pair — slow,
obviously correct, and the yardstick for
:meth:`~repro.core.similarity.FormPageSimilarity.pairwise` /
:class:`~repro.core.simengine.SimilarityEngine`, the directory's
classify scan and its posting-list search, in the tests and the benches.
Cluster labels come from a full sort of every centroid term
(:func:`label_terms`), the reference for the heap-cut
:meth:`~repro.vsm.vector.SparseVector.top_terms` and the directory's
per-centroid label cache.

It also keeps the standard library's ``html.parser`` as the reference
for :mod:`repro.html.lexer`: :class:`TokenRecorder` records its events
as lexer tokens, and :func:`stdlib_parse_html` builds the DOM from its
callbacks (both under the lexer's end-of-input rule, :func:`feed_whole_page`).
On that tree sits the DOM route to a page's analysis — a recursive walk
for located text and :func:`extract_forms` for the form size — that
the one-pass scanner behind
:func:`~repro.parallel.ingest.analyze_form_page` is pinned to.

The term runs and their one-pass weighting are pinned to the flat-term
route: :func:`oracle_terms` (tokenize, drop stopwords, stem), a flat
``(term, location)`` list per space (:func:`flat_page_analysis`), one
``Counter`` add per occurrence (:func:`located_term_frequencies`) and
``scheme.vector`` (:func:`flat_fit`, :func:`flat_vectors`).

Snapshots are pinned to the JSON formats the packed version 3 replaced:
:func:`json_snapshot_payload` / :func:`save_json_snapshot` write
version 1 (Equation-1 state) or version 2 (any other scheme), one JSON
document with term-string dicts and no centroids, which
:meth:`~repro.service.snapshot.Snapshot.load` still reads.
"""

import time
from html.parser import HTMLParser
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.kmeans import KMeansResult, kmeans
from repro.core.config import CAFCConfig
from repro.core.form_page import RawFormPage, VectorPair, centroid_of
from repro.core.result import LABEL_TERMS
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import EngineStats
from repro.datasets.store import atomic_write_json
from repro.html.dom import (
    NON_VISIBLE_TAGS, SELF_NESTING_CLOSERS, VOID_TAGS, Element, Text,
)
from repro.html.forms import extract_forms
from repro.html.lexer import END, START, STARTEND, TEXT
from repro.html.text_extract import LocatedText, TextLocation, scan_page
from repro.parallel.ingest import PageAnalysis
from repro.service.snapshot import _KIND, _page_to_json, _scheme_name
from repro.text.analyzer import TextAnalyzer
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize
from repro.vsm.schemes import SpaceStats
from repro.vsm.weights import LocationWeights
from repro.vsm.vector import SparseVector, cosine_similarity


class NaiveBackend:
    """A :class:`~repro.core.similarity.FormPageSimilarity` whose batched
    shapes are per-pair scalar calls, with no compiled engine.

    Drop-in wherever a caller takes ``similarity=`` and only scores
    single pairs or asks for ``pairwise`` (Algorithm 3's distance
    matrix, for one); ``page_centroid_matrix`` is the engine shape's
    reference.  Counts comparisons the same way, so stats-based
    assertions apply to both.
    """

    def __init__(self, similarity: FormPageSimilarity) -> None:
        self.similarity = similarity
        self.stats = EngineStats(backend="naive")

    @classmethod
    def from_config(cls, config: CAFCConfig) -> "NaiveBackend":
        return cls(FormPageSimilarity.from_config(config))

    def __call__(self, a, b) -> float:
        self.stats.comparisons += 1
        return self.similarity(a, b)

    def pairwise(self, items: Sequence) -> np.ndarray:
        n = len(items)
        matrix = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            matrix[i, i] = self(items[i], items[i])
            for j in range(i + 1, n):
                value = self(items[i], items[j])
                matrix[i, j] = value
                matrix[j, i] = value
        return matrix

    def page_centroid_matrix(
        self, pages: Sequence, centroids: Sequence
    ) -> List[List[float]]:
        return [
            [self(page, centroid) for centroid in centroids]
            for page in pages
        ]


def naive_argmax(
    config: CAFCConfig, page, centroids: Sequence
) -> Tuple[int, float]:
    """Section 5's classification by per-pair Equation 3: the first
    centroid with the highest similarity, and that similarity."""
    similarity = NaiveBackend.from_config(config)
    scores = [similarity(page, centroid) for centroid in centroids]
    best = max(range(len(scores)), key=scores.__getitem__)
    return best, scores[best]


def sequential_pairwise(vectors: Sequence[SparseVector]) -> np.ndarray:
    """All-pairs cosines in a CSR ``A @ A.T`` product's summation order,
    the reference for the engine's all-pairs kernel.

    Rows are the vectors normalized as the engine stores them (each
    weight times ``1 / norm``).  Entry ``(i, j)`` starts from 0.0 and
    adds, over row ``i``'s stored terms in that order, row ``i``'s
    weight times row ``j``'s for the same term; a term row ``j`` lacks
    would add an exact 0.0, so it is skipped.  The diagonal is the
    engine's self cosine, ``sum(w * w)`` over the row.
    """
    rows = []
    for vector in vectors:
        norm = vector.norm()
        row = []
        if norm > 0.0:
            inv = 1.0 / norm
            row = [(t, w * inv) for t, w in zip(*vector.id_arrays())]
        rows.append(row)
    postings: Dict[int, List[Tuple[int, float]]] = {}
    for j, row in enumerate(rows):
        for term, weight in row:
            postings.setdefault(term, []).append((j, weight))
    n = len(rows)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i, row in enumerate(rows):
        totals = [0.0] * n
        for term, weight in row:
            for j, other in postings[term]:
                totals[j] += weight * other
        totals[i] = sum(w * w for _, w in row) if row else 0.0
        matrix[i] = totals
    return matrix


def sequential_similarity_matrix(similarity: FormPageSimilarity, items) -> np.ndarray:
    """Equation 3 over :func:`sequential_pairwise`, per scored space,
    combined by ``similarity.combine`` (an unscored space passes 0.0)."""
    per_space = {
        name: sequential_pairwise([getattr(item, name) for item in items])
        for name in similarity.spaces
    }
    return similarity.combine(per_space.get("pc", 0.0), per_space.get("fc", 0.0))


_ANALYZER = TextAnalyzer()


def query_vector(query: str) -> SparseVector:
    """A keyword query through the page-text pipeline, term counts as
    weights — the vector ``/search`` scores."""
    weights: Dict[str, float] = {}
    for term in _ANALYZER.analyze(query):
        weights[term] = weights.get(term, 0.0) + 1.0
    return SparseVector(weights)


def top_terms(vector: SparseVector, n: int) -> List[Tuple[str, float]]:
    """Reference :meth:`~repro.vsm.vector.SparseVector.top_terms`: sort
    every ``(term, weight)`` item by descending weight, ties by term."""
    return sorted(vector.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def label_terms(centroid: VectorPair) -> List[str]:
    """Reference :func:`~repro.core.pipeline._label_terms`: the same PC/FC
    interleave over the full-sort :func:`top_terms`."""
    pc_terms = [term for term, _ in top_terms(centroid.pc, LABEL_TERMS)]
    fc_terms = [term for term, _ in top_terms(centroid.fc, LABEL_TERMS)]
    merged: List[str] = []
    for pc_term, fc_term in zip(pc_terms, fc_terms):
        for term in (pc_term, fc_term):
            if term not in merged:
                merged.append(term)
    return merged[:LABEL_TERMS] if merged else pc_terms[:LABEL_TERMS]


def cluster_rows(organizer) -> List[SparseVector]:
    """Every cluster's combined (PC + FC) centroid, in cluster order."""
    return [
        cluster.centroid.pc.add(cluster.centroid.fc)
        for cluster in organizer.clusters
    ]


def page_rows(organizer) -> List[Tuple[str, int, SparseVector]]:
    """``(url, cluster, combined vector)`` for every managed page."""
    return [
        (page.url, index, page.pc.add(page.fc))
        for index, cluster in enumerate(organizer.clusters)
        for page in cluster.pages
    ]


def matched_terms(vector: SparseVector, combined: SparseVector) -> List[str]:
    return sorted(term for term in vector.terms() if term in combined)


def scan_clusters(
    organizer, query: str, n: int, rows: Optional[List[SparseVector]] = None
) -> List[Dict[str, object]]:
    """Reference ``/search``: cosine of the query against every
    cluster's combined centroid, best first, ties by index.  Like the
    directory's stale-index fallback, it builds a hit record for every
    positive score before truncating.  ``rows`` (from
    :func:`cluster_rows`) skips re-deriving the combined vectors when
    the organizer has not changed since."""
    vector = query_vector(query)
    if rows is None:
        rows = cluster_rows(organizer)
    hits = []
    for index, combined in enumerate(rows):
        score = cosine_similarity(vector, combined)
        if score > 0.0:
            cluster = organizer.clusters[index]
            hits.append({
                "cluster": index,
                "score": score,
                "matched_terms": matched_terms(vector, combined),
                "top_terms": label_terms(cluster.centroid),
                "size": cluster.size,
            })
    hits.sort(key=lambda hit: (-hit["score"], hit["cluster"]))
    return hits[:n]


def scan_pages(
    organizer, query: str, n: int,
    rows: Optional[List[Tuple[str, int, SparseVector]]] = None,
) -> List[Dict[str, object]]:
    """Reference ``/search?scope=pages``: cosine of the query against
    every managed page's combined vector, best first, ties by URL.
    ``rows`` comes from :func:`page_rows`, as for :func:`scan_clusters`."""
    vector = query_vector(query)
    if rows is None:
        rows = page_rows(organizer)
    scored = []
    for url, index, combined in rows:
        score = cosine_similarity(vector, combined)
        if score > 0.0:
            scored.append((url, score, index, combined))
    scored.sort(key=lambda hit: (-hit[1], hit[0]))
    return [
        {
            "url": url,
            "cluster": index,
            "score": score,
            "matched_terms": matched_terms(vector, combined),
        }
        for url, score, index, combined in scored[:n]
    ]


def oracle_kmeans(
    pages: Sequence, seed_centroids: Sequence, config: CAFCConfig
) -> KMeansResult:
    """Algorithm 1 on the generic per-pair k-means loop."""
    return kmeans(
        points=list(pages),
        initial_centroids=list(seed_centroids),
        similarity=FormPageSimilarity.from_config(config),
        make_centroid=centroid_of,
        stop_fraction=config.stop_fraction,
        max_iterations=config.max_iterations,
    )


def max_abs_diff(a, b) -> float:
    """Largest elementwise gap between two equal-shape matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, (a.shape, b.shape)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


# ----------------------------------------------------------------------
# The stdlib html.parser route: the reference for repro.html.lexer.
# ----------------------------------------------------------------------

def feed_whole_page(parser: HTMLParser, html: str) -> None:
    """Run ``parser`` over a complete page under the lexer's end-of-input
    rule.

    Where ``feed`` stops to wait for more input, an unterminated
    comment, declaration, instruction or tag starts; the lexer lets it
    run to the end of the page and emits nothing more.  Anything else
    left over (trailing text, a lone ``<``, an unclosed script body)
    ``close`` handles as usual.
    """
    parser.feed(html)
    rest = parser.rawdata
    if parser.cdata_elem is None and len(rest) >= 2 and rest[0] == "<":
        return
    parser.close()


class TokenRecorder(HTMLParser):
    """``html.parser`` events as :func:`repro.html.lexer.tokens` tuples
    (comments and declarations dropped, as the lexer drops them)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tokens: List[tuple] = []

    def handle_starttag(self, tag, attrs) -> None:
        self.tokens.append((START, tag, attrs))

    def handle_startendtag(self, tag, attrs) -> None:
        self.tokens.append((STARTEND, tag, attrs))

    def handle_endtag(self, tag) -> None:
        self.tokens.append((END, tag, None))

    def handle_data(self, data) -> None:
        self.tokens.append((TEXT, data, None))


def stdlib_tokens(html: str) -> List[tuple]:
    """Reference :func:`repro.html.lexer.tokens` (every attribute built)."""
    recorder = TokenRecorder()
    feed_whole_page(recorder, html)
    return recorder.tokens


class StdlibDomBuilder(HTMLParser):
    """Reference :func:`repro.html.parser.parse_html`: the same
    open-element stack, driven by ``html.parser`` callbacks."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self._stack: List[Element] = [self.root]

    def handle_starttag(self, tag, attrs) -> None:
        attr_dict = {name.lower(): (value or "") for name, value in attrs}
        if tag == "html":
            # Merge attributes into the synthetic root instead of nesting.
            self.root.attrs.update(attr_dict)
            return
        if tag in SELF_NESTING_CLOSERS and self._stack[-1].tag == tag:
            # <option>a<option>b  ==  <option>a</option><option>b</option>
            self._stack.pop()
        element = Element(tag, attr_dict)
        self._stack[-1].append(element)
        if tag not in VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag, attrs) -> None:
        attr_dict = {name.lower(): (value or "") for name, value in attrs}
        if tag == "html":
            self.root.attrs.update(attr_dict)
            return
        self._stack[-1].append(Element(tag, attr_dict))

    def handle_endtag(self, tag) -> None:
        if tag == "html" or tag in VOID_TAGS:
            return
        for depth in range(len(self._stack) - 1, 0, -1):
            if self._stack[depth].tag == tag:
                del self._stack[depth:]
                return

    def handle_data(self, data) -> None:
        if data and not data.isspace():
            self._stack[-1].append(Text(data))


def stdlib_parse_html(html: str) -> Element:
    """A page's DOM tree as the stdlib route builds it."""
    builder = StdlibDomBuilder()
    feed_whole_page(builder, html)
    return builder.root


# ----------------------------------------------------------------------
# The DOM route to a page analysis.
# ----------------------------------------------------------------------

def _location_of(element: Element) -> TextLocation:
    """Classify an element by its own tag and ancestry."""
    if element.tag == "title" or element.has_ancestor("title"):
        return TextLocation.TITLE
    if element.tag == "option" or element.has_ancestor("option"):
        return TextLocation.OPTION
    if element.tag == "a" or element.has_ancestor("a"):
        return TextLocation.ANCHOR
    return TextLocation.BODY


def _walk(element: Element, inside_form: bool, out: List[LocatedText]) -> None:
    if element.tag in NON_VISIBLE_TAGS and element.tag != "head":
        return
    if element.tag == "head":
        # The title inside <head> is visible (browser chrome + search
        # snippets); everything else in head is not.
        title = element.find("title")
        if title is not None:
            text = title.text_content().strip()
            if text:
                out.append(LocatedText(text, TextLocation.TITLE, inside_form))
        return
    if element.tag == "input":
        input_type = element.get("type").lower()
        if input_type in ("submit", "button", "image", "reset"):
            value = element.get("value") or element.get("alt")
            if value:
                out.append(LocatedText(value, TextLocation.BODY, inside_form))
        elif input_type != "hidden":
            placeholder = element.get("placeholder")
            if placeholder:
                out.append(LocatedText(placeholder, TextLocation.BODY, inside_form))
        return
    if element.tag == "img":
        alt = element.get("alt")
        if alt:
            out.append(LocatedText(alt, _location_of(element), inside_form))
        return

    now_inside_form = inside_form or element.tag == "form"
    for child in element.children:
        if isinstance(child, Text):
            fragment = child.data.strip()
            if fragment:
                out.append(
                    LocatedText(fragment, _location_of(element), now_inside_form)
                )
        elif isinstance(child, Element):
            _walk(child, now_inside_form, out)


def dom_located_text(root: Element) -> List[LocatedText]:
    """Located text by a recursive walk of a parsed tree."""
    fragments: List[LocatedText] = []
    _walk(root, inside_form=False, out=fragments)
    return fragments


def dom_attribute_count(root: Element) -> int:
    """The largest form's attribute count, by :func:`extract_forms`."""
    return max((form.attribute_count for form in extract_forms(root)), default=0)


def dom_page_analysis(raw: RawFormPage, analyzer: TextAnalyzer) -> PageAnalysis:
    """:func:`~repro.parallel.ingest.analyze_form_page` by the DOM route:
    parse a stdlib tree, walk it for located text, extract its forms."""
    root = stdlib_parse_html(raw.html)
    runs = []
    on_page_terms = 0
    for fragment in dom_located_text(root):
        terms = analyzer.analyze(fragment.text)
        if terms:
            runs.append((fragment.location, fragment.inside_form, terms))
            on_page_terms += len(terms)
    for anchor in raw.anchor_texts:
        terms = analyzer.analyze(anchor)
        if terms:
            runs.append((TextLocation.ANCHOR, False, terms))
    return PageAnalysis(runs, dom_attribute_count(root), on_page_terms)


# ----------------------------------------------------------------------
# The flat-term route from located text to weighted vectors.
# ----------------------------------------------------------------------

_ORACLE_STEMMER = PorterStemmer()

LocatedTerm = Tuple[str, TextLocation]


def oracle_terms(text: str) -> List[str]:
    """``TextAnalyzer().analyze`` as three steps: :func:`tokenize`, drop
    stopwords, Porter-stem each kept token."""
    return [
        _ORACLE_STEMMER.stem(token)
        for token in tokenize(text)
        if token not in STOPWORDS
    ]


def located_term_frequencies(
    located_terms: Sequence[LocatedTerm], weights: LocationWeights
) -> Counter:
    """LOC-weighted term frequencies from a flat ``(term, location)``
    list: one factor lookup and one ``Counter`` add per occurrence."""
    weighted: Counter = Counter()
    for term, location in located_terms:
        weighted[term] += weights.factor(location)
    return weighted


class FlatAnalysis(NamedTuple):
    """A page's analysis as flat located-term lists, one per space."""

    pc_terms: List[LocatedTerm]
    fc_terms: List[LocatedTerm]
    attribute_count: int
    on_page_terms: int


def flat_page_analysis(raw: RawFormPage) -> FlatAnalysis:
    """The located terms of a page, fragment by fragment, with every
    ANCHOR text appended to PC after the on-page terms."""
    scan = scan_page(raw.html)
    pc_terms: List[LocatedTerm] = []
    fc_terms: List[LocatedTerm] = []
    for fragment in scan.fragments:
        location = fragment.location
        located = [(term, location) for term in oracle_terms(fragment.text)]
        pc_terms.extend(located)
        if fragment.inside_form:
            fc_terms.extend(located)
    on_page_terms = len(pc_terms)
    for anchor in raw.anchor_texts:
        pc_terms.extend(
            (term, TextLocation.ANCHOR) for term in oracle_terms(anchor)
        )
    return FlatAnalysis(
        pc_terms, fc_terms, scan.attribute_count, on_page_terms
    )


def flat_observe(scheme, stats: SpaceStats, located_terms, weights) -> None:
    """A built-in scheme's ``observe`` over a flat located-term list:
    DF from every term in order; BM25 also sums per-occurrence factors."""
    stats.corpus.add_document(term for term, _ in located_terms)
    if scheme.name == "bm25":
        stats.total_weighted_length += sum(
            weights.factor(location) for _, location in located_terms
        )


class FlatFit(NamedTuple):
    """What :func:`flat_fit` gives: per-space stats and emit contexts."""

    pc_stats: SpaceStats
    fc_stats: SpaceStats
    pc_context: object
    fc_context: object


def flat_fit(scheme, analyses: Sequence[FlatAnalysis], weights) -> FlatFit:
    """Observe every page in order, then prepare both spaces."""
    pc_stats, fc_stats = SpaceStats(), SpaceStats()
    for analysis in analyses:
        flat_observe(scheme, pc_stats, analysis.pc_terms, weights)
        flat_observe(scheme, fc_stats, analysis.fc_terms, weights)
    return FlatFit(
        pc_stats, fc_stats, scheme.prepare(pc_stats), scheme.prepare(fc_stats)
    )


def flat_vectors(scheme, analysis: FlatAnalysis, fit: FlatFit, weights):
    """One page's ``(pc, fc)`` vectors: ``scheme.vector`` over
    :func:`located_term_frequencies`."""
    return (
        scheme.vector(
            located_term_frequencies(analysis.pc_terms, weights),
            fit.pc_stats, fit.pc_context,
        ),
        scheme.vector(
            located_term_frequencies(analysis.fc_terms, weights),
            fit.fc_stats, fit.fc_context,
        ),
    )


# ---------------------------------------------------------------------
# The JSON snapshot writer (formats 1 and 2).
# ---------------------------------------------------------------------


def json_snapshot_payload(snapshot, version: Optional[int] = None) -> dict:
    """The version-1/2 JSON payload of ``snapshot``: by default version
    1 for Equation-1 state and version 2 for any other scheme (version 2
    holds any scheme, so ``version=2`` is valid for Equation 1 too)."""
    if version is None:
        version = 1 if _scheme_name(snapshot.vectorizer_state) == "eq1" else 2
    terms = list(snapshot.top_terms)
    terms += [[]] * (len(snapshot.clusters) - len(terms))
    payload = {
        "format_version": version,
        "kind": _KIND,
        "created_unix": snapshot.created_unix or time.time(),
        "algorithm": snapshot.algorithm,
        "config": snapshot.config.to_dict(),
        "vectorizer": snapshot.vectorizer_state,
        "clusters": [
            {
                "top_terms": list(labels),
                "pages": [_page_to_json(page) for page in members],
            }
            for members, labels in zip(snapshot.clusters, terms)
        ],
    }
    if snapshot.meta:
        payload["meta"] = dict(snapshot.meta)
    return payload


def save_json_snapshot(snapshot, path, version: Optional[int] = None) -> None:
    """Write ``snapshot`` as a version-1/2 JSON file (gzipped when
    ``path`` ends in ``.gz``)."""
    path = str(path)
    atomic_write_json(
        json_snapshot_payload(snapshot, version),
        path,
        compress=path.endswith(".gz"),
    )
