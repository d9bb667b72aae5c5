"""Tests for corpus statistics and Equation-1 weighting."""

import math
from collections import Counter

import pytest

from repro.html.text_extract import TextLocation
from repro.vsm.corpus import CorpusStats
from repro.vsm.weights import (
    LocationWeights,
    run_term_frequencies,
    tf_idf_vector,
)
from tests.oracle import located_term_frequencies


class TestCorpusStats:
    def test_counts(self):
        corpus = CorpusStats()
        corpus.add_document(["a", "b", "a"])
        corpus.add_document(["b", "c"])
        assert corpus.document_count == 2
        assert corpus.document_frequency("a") == 1
        assert corpus.document_frequency("b") == 2
        assert corpus.document_frequency("missing") == 0

    def test_repeated_terms_count_once_per_document(self):
        corpus = CorpusStats()
        corpus.add_document(["x", "x", "x"])
        assert corpus.document_frequency("x") == 1

    def test_idf_formula(self):
        corpus = CorpusStats()
        corpus.add_document(["rare"])
        corpus.add_document(["common"])
        corpus.add_document(["common"])
        corpus.add_document(["common"])
        assert corpus.idf("rare") == pytest.approx(math.log(4 / 1))
        assert corpus.idf("common") == pytest.approx(math.log(4 / 3))

    def test_idf_ubiquitous_term_is_zero(self):
        corpus = CorpusStats()
        corpus.add_document(["everywhere"])
        corpus.add_document(["everywhere"])
        assert corpus.idf("everywhere") == 0.0

    def test_idf_unknown_term_is_zero(self):
        corpus = CorpusStats()
        corpus.add_document(["a"])
        assert corpus.idf("unknown") == 0.0

    def test_idf_empty_corpus(self):
        assert CorpusStats().idf("anything") == 0.0

    def test_idf_map_matches_idf(self):
        corpus = CorpusStats()
        corpus.add_document(["a", "b"])
        corpus.add_document(["a"])
        mapping = corpus.idf_map()
        for term in ("a", "b"):
            assert mapping[term] == pytest.approx(corpus.idf(term))

    def test_vocabulary_size(self):
        corpus = CorpusStats()
        corpus.add_document(["a", "b"])
        corpus.add_document(["b", "c"])
        assert corpus.vocabulary_size == 3


class TestLocationWeights:
    def test_default_ordering(self):
        weights = LocationWeights()
        assert weights.factor(TextLocation.TITLE) > weights.factor(TextLocation.BODY)
        assert weights.factor(TextLocation.OPTION) < weights.factor(TextLocation.BODY)
        assert weights.factor(TextLocation.ANCHOR) >= weights.factor(TextLocation.BODY)

    def test_uniform(self):
        uniform = LocationWeights.uniform()
        for location in TextLocation:
            assert uniform.factor(location) == 1.0

    def test_run_term_frequencies_accumulate(self):
        weights = LocationWeights(title=3, anchor=2, body=1, option=0.5)
        counts = run_term_frequencies(
            [
                (TextLocation.BODY, False, ["job", "job"]),
                (TextLocation.TITLE, False, ["job"]),
                (TextLocation.OPTION, True, ["sales"]),
            ],
            weights,
        )
        assert counts == {"job": 5.0, "sales": 0.5}   # job: 1 + 1 + 3

    def test_empty_input(self):
        assert run_term_frequencies([], LocationWeights()) == {}

    def test_runs_add_one_occurrence_at_a_time(self):
        """0.3 added three times is not 3 * 0.3: the runs path must
        round like the flat per-occurrence Counter."""
        weights = LocationWeights()
        runs = [
            (TextLocation.BODY, True, ["price"]),
            (TextLocation.OPTION, True, ["price", "make", "price", "price"]),
        ]
        flat = [(term, location) for location, _, terms in runs for term in terms]
        expected = located_term_frequencies(flat, weights)
        counts = run_term_frequencies(runs, weights)
        assert list(counts.items()) == list(expected.items())
        assert counts["price"] == ((1.0 + 0.3) + 0.3) + 0.3 != 1.0 + 3 * 0.3


class TestTfIdfVector:
    def _corpus(self):
        corpus = CorpusStats()
        corpus.add_document(["flight", "cheap"])
        corpus.add_document(["flight", "hotel"])
        corpus.add_document(["hotel", "room"])
        corpus.add_document(["job", "career"])
        return corpus

    def test_equation_one(self):
        corpus = self._corpus()
        vector = tf_idf_vector(Counter({"flight": 2.0}), corpus)
        expected = 2.0 * math.log(4 / 2)
        assert vector["flight"] == pytest.approx(expected)

    def test_zero_idf_terms_dropped(self):
        corpus = CorpusStats()
        corpus.add_document(["everywhere", "rare"])
        corpus.add_document(["everywhere"])
        vector = tf_idf_vector(Counter({"everywhere": 5.0, "rare": 1.0}), corpus)
        assert "everywhere" not in vector
        assert "rare" in vector

    def test_unknown_terms_dropped(self):
        vector = tf_idf_vector(Counter({"unknown": 3.0}), self._corpus())
        assert len(vector) == 0

    def test_location_weight_scales_linearly(self):
        corpus = self._corpus()
        light = tf_idf_vector(Counter({"room": 1.0}), corpus)
        heavy = tf_idf_vector(Counter({"room": 3.0}), corpus)
        assert heavy["room"] == pytest.approx(3.0 * light["room"])
