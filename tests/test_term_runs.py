"""Term runs and their one-pass weighting against the flat-term oracle.

:func:`~repro.parallel.ingest.analyze_form_page` keeps one
``(location, inside_form, terms)`` run per fragment, the raw-token memo
of :meth:`~repro.text.analyzer.TextAnalyzer.analyze` maps each match to
its term, and :func:`~repro.vsm.weights.run_term_frequencies` looks a
LOC factor up once per run.  Every float they lead to must equal the
flat route in ``tests/oracle.py`` (tokenize, drop stopwords, stem, one
``(term, location)`` pair per occurrence, a ``Counter`` add each, then
``scheme.vector``): vector items and their order, DF tables and their
key order, BM25's total weighted length, and the Table 1 counts, under
every built-in scheme with the default and the uniform LOC policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.form_page import RawFormPage
from repro.core.vectorizer import FormPageVectorizer
from repro.parallel.config import ParallelConfig
from repro.stream import StreamConfig, StreamingIngestor
from repro.vsm.interning import VOCABULARY
from repro.vsm.weights import LocationWeights
from repro.webgen.stream import page_at
from tests.oracle import (
    flat_fit,
    flat_page_analysis,
    flat_vectors,
    located_term_frequencies,
)
from tests.test_located_scan import tag_soup

SCHEMES = ("eq1", "bm25", "tf")
POLICIES = {"default": LocationWeights(), "uniform": LocationWeights.uniform()}
CASES = [
    pytest.param(scheme, policy, id=f"{scheme}-{policy}")
    for scheme in SCHEMES for policy in POLICIES
]


def serial_vectorizer(scheme, policy):
    return FormPageVectorizer(
        location_weights=POLICIES[policy],
        parallel=ParallelConfig(workers=1),
        scheme=scheme,
    )


def df_items(stats):
    return list(stats.corpus.document_frequencies().items())


def assert_page_matches(page, flat, pc, fc):
    assert page.pc.items() == pc.items(), page.url
    assert page.fc.items() == fc.items(), page.url
    assert page.form_term_count == len(flat.fc_terms), page.url
    assert page.page_term_count == flat.on_page_terms, page.url
    assert page.attribute_count == flat.attribute_count, page.url


def assert_fit_matches(raw_pages, scheme, policy):
    """A fresh fit of ``raw_pages`` equals the flat route, float for float."""
    vectorizer = serial_vectorizer(scheme, policy)
    pages = vectorizer.fit_transform(raw_pages)
    weights = POLICIES[policy]
    flats = [flat_page_analysis(raw) for raw in raw_pages]
    fit = flat_fit(vectorizer.scheme, flats, weights)
    for ours, theirs in ((vectorizer.pc_stats, fit.pc_stats),
                         (vectorizer.fc_stats, fit.fc_stats)):
        assert ours.document_count == theirs.document_count
        assert df_items(ours) == df_items(theirs)
        assert ours.total_weighted_length == theirs.total_weighted_length
    for page, flat in zip(pages, flats):
        pc, fc = flat_vectors(vectorizer.scheme, flat, fit, weights)
        assert_page_matches(page, flat, pc, fc)
    return vectorizer, fit


@pytest.fixture(scope="module")
def anchored_raw_pages(benchmark_web):
    return benchmark_web.raw_pages(include_anchor_text=True)


@pytest.mark.parametrize("scheme, policy", CASES)
def test_corpus_fit_and_new_pages(scheme, policy, benchmark_raw_pages):
    """The 454-page corpus, then unseen ``page_at`` pages through
    ``transform_new`` against the fitted stats; Equation 1 and BM25
    intern no new term doing so."""
    vectorizer, fit = assert_fit_matches(benchmark_raw_pages, scheme, policy)
    terms = len(VOCABULARY)
    for index in range(150):
        raw = page_at(index, seed=3)
        flat = flat_page_analysis(raw)
        pc, fc = flat_vectors(vectorizer.scheme, flat, fit, POLICIES[policy])
        assert_page_matches(vectorizer.transform_new(raw), flat, pc, fc)
    if scheme != "tf":  # corpus weighting off keeps every term
        assert len(VOCABULARY) == terms


@pytest.mark.parametrize("scheme", SCHEMES)
def test_anchor_text_corpus_fit(scheme, anchored_raw_pages):
    """The corpus with harvested anchor text: trailing ANCHOR runs."""
    assert any(raw.anchor_texts for raw in anchored_raw_pages)
    assert_fit_matches(anchored_raw_pages, scheme, "default")


@pytest.mark.parametrize("scheme, policy", CASES)
def test_streamed_pages_fit(scheme, policy):
    assert_fit_matches(
        [page_at(index, seed=7) for index in range(150)], scheme, policy
    )


# A repeated option term after a body one: adding 0.3 three times to
# 1.0 rounds differently from adding 3 * 0.3, in the TFs and in BM25's
# total weighted length.
ROUNDING_PAGES = [
    RawFormPage(
        "http://cars.com/",
        "<title>Price guide</title><p>price</p><form><select>"
        "<option>price make price price</option><option>make</option>"
        "</select><input type=submit value='Price it'></form>",
        anchor_texts=["car prices", "prices"],
    ),
    RawFormPage("http://jobs.com/", "<p>job listings</p><form>"
                "<input placeholder='job city'></form>"),
    RawFormPage("http://deals.com/", "<p>price deals</p>"),
]


@pytest.mark.parametrize("scheme, policy", CASES)
def test_rounding_pages_fit(scheme, policy):
    assert_fit_matches(ROUNDING_PAGES, scheme, policy)


_anchors = st.lists(st.sampled_from(["cheap flights", "Jobs", "the", ""]),
                    max_size=2)
_soup_pages = st.lists(
    st.builds(lambda html, anchors: (html, anchors), tag_soup, _anchors),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("scheme, policy", CASES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(pages=_soup_pages)
def test_tag_soup_fit(scheme, policy, pages):
    raw_pages = [
        RawFormPage(f"http://soup{index}.com/", html, anchor_texts=anchors)
        for index, (html, anchors) in enumerate(pages)
    ]
    assert_fit_matches(raw_pages, scheme, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_streamed_term_frequencies(policy):
    """The TFs a streamed page keeps for re-weighting are the flat
    route's, items and order."""
    weights = POLICIES[policy]
    ingestor = StreamingIngestor(
        StreamConfig(batch_size=50),
        FormPageVectorizer(location_weights=weights),
    )
    raw_pages = [page_at(index, seed=11) for index in range(100)]
    streamed = [page for batch in ingestor.ingest(raw_pages) for page in batch]
    for raw, page in zip(raw_pages, streamed):
        flat = flat_page_analysis(raw)
        pc_tf = located_term_frequencies(flat.pc_terms, weights)
        fc_tf = located_term_frequencies(flat.fc_terms, weights)
        assert list(page.pc_tf.items()) == list(pc_tf.items()), raw.url
        assert list(page.fc_tf.items()) == list(fc_tf.items()), raw.url
        assert page.page.form_term_count == len(flat.fc_terms)
        assert page.page.page_term_count == flat.on_page_terms
