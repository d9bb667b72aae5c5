"""Tests for stopwords and the TextAnalyzer pipeline."""

import sys
import threading
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.text.analyzer import TextAnalyzer, default_analyzer
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOPWORDS, is_stopword
from tests.oracle import oracle_terms


class TestStopwords:
    def test_common_function_words(self):
        for word in ("the", "and", "of", "is", "with", "your"):
            assert is_stopword(word)

    def test_content_words_are_not_stopwords(self):
        for word in ("flight", "hotel", "job", "music", "search"):
            assert not is_stopword(word)

    def test_generic_web_terms_kept_for_tfidf(self):
        # The paper relies on TF-IDF (not stopwording) to suppress these.
        for word in ("privacy", "copyright", "shopping"):
            assert not is_stopword(word)

    def test_stopwords_are_lowercase(self):
        assert all(word == word.lower() for word in STOPWORDS)

    def test_stopwords_nonempty(self):
        assert len(STOPWORDS) > 100


class TestTextAnalyzer:
    def test_pipeline_order(self):
        analyzer = TextAnalyzer()
        # tokenize -> drop "for"/"and"/"the" -> stem
        assert analyzer.analyze("Searching for flights and the hotels") == [
            "search", "flight", "hotel",
        ]

    def test_empty_text(self):
        assert TextAnalyzer().analyze("") == []

    def test_stopword_only_text(self):
        assert TextAnalyzer().analyze("the of and is") == []

    def test_term_frequencies(self):
        counts = Counter(TextAnalyzer().analyze("flight flights flying flight"))
        assert counts == Counter({"flight": 3, "fly": 1})

    def test_custom_stopwords(self):
        analyzer = TextAnalyzer(stopwords={"flight"})
        assert analyzer.analyze("flight hotel") == ["hotel"]

    def test_disabled_stopwords(self):
        analyzer = TextAnalyzer(stopwords=set())
        assert "the" in analyzer.analyze("the hotel")

    def test_disabled_stemming(self):
        class IdentityStemmer(PorterStemmer):
            def stem_uncached(self, word):
                return word

        analyzer = TextAnalyzer(stemmer=IdentityStemmer())
        assert analyzer.analyze("flights") == ["flights"]

    def test_analyze_pre_tokenized_text(self):
        analyzer = TextAnalyzer()
        assert analyzer.analyze(" ".join(["the", "flights"])) == ["flight"]

    def test_memo_is_keyed_by_raw_token(self):
        """Case and apostrophe variants are memoized apart but analyze
        alike; dropped tokens are memoized as ""."""
        analyzer = TextAnalyzer()
        text = "Flights FLIGHTS flights o'hare O'Hare THE x"
        assert analyzer.analyze(text) == oracle_terms(text)
        assert analyzer.analyze(text) == ["flight"] * 3 + ["ohar"] * 2
        assert analyzer._cache == {
            "Flights": "flight", "FLIGHTS": "flight", "flights": "flight",
            "o'hare": "ohar", "O'Hare": "ohar", "THE": "", "x": "",
        }

    def test_cache_consistency(self):
        analyzer = TextAnalyzer()
        first = analyzer.analyze("reservations reservations")
        second = analyzer.analyze("reservations")
        assert first == [second[0]] * 2

    def test_memo_bounded_and_stems_unchanged(self, monkeypatch):
        """The memo keeps at most the stemmer's cap (read on insert, so a
        small cap here stands for the default) and evicting never
        changes a stem."""
        text = "searching flights hotels reservations rentals " * 3 + " ".join(
            f"travel{a}{b}ing" for a in "bcdfg" for b in "klmn"
        )
        expected = TextAnalyzer().analyze(text)
        monkeypatch.setattr(PorterStemmer, "DEFAULT_CACHE_SIZE", 8)
        analyzer = TextAnalyzer()
        assert analyzer.analyze(text) == expected
        assert analyzer.analyze(text) == expected
        assert len(analyzer._cache) == 8

    def test_one_stem_memo_per_analyzer(self):
        """On a miss the analyzer runs the stemmer's algorithm directly,
        so its own memo is the only one that fills."""
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [
            f"novel{letters[i // 676]}{letters[i // 26 % 26]}{letters[i % 26]}ings"
            for i in range(3000)
        ]
        expected = [PorterStemmer().stem(word) for word in words]
        analyzer = TextAnalyzer()
        assert analyzer.analyze(" ".join(words)) == expected
        assert analyzer.stemmer._cache == {}
        assert len(analyzer._cache) == 3000

    def test_shared_memo_under_threads(self, monkeypatch):
        """Threads sharing one analyzer evict without a lock: no error,
        no wrong stem, and the memo overshoots the cap by at most one
        entry per thread."""
        monkeypatch.setattr(PorterStemmer, "DEFAULT_CACHE_SIZE", 16)
        analyzer = TextAnalyzer()
        words = [f"travel{a}{b}{c}ing" for a in "bcdfg" for b in "klmn"
                 for c in "prst"]
        text = " ".join(words)
        expected = TextAnalyzer(stemmer=PorterStemmer()).analyze(text)
        errors, threads = [], []

        def work():
            try:
                for _ in range(20):
                    if analyzer.analyze(text) != expected:
                        errors.append("stem changed")
            except Exception as exc:  # surfaced by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(analyzer._cache) <= 16 + len(threads)

    def test_default_analyzer_factory(self):
        assert default_analyzer().analyze("flights") == ["flight"]

    @given(st.text(max_size=300))
    def test_never_raises(self, text):
        terms = default_analyzer().analyze(text)
        assert all(isinstance(term, str) and term for term in terms)

    @given(st.lists(st.sampled_from(["flight", "the", "hotels", "booking"]), max_size=30))
    def test_output_length_bounded_by_input(self, tokens):
        analyzer = TextAnalyzer()
        assert len(analyzer.analyze(" ".join(tokens))) <= len(tokens)

    @given(st.text(alphabet="aAbBeEiIsSnNgG' -.9", max_size=200))
    def test_matches_tokenize_stopwords_stem(self, text):
        analyzer = TextAnalyzer()
        assert analyzer.analyze(text) == oracle_terms(text)
        assert analyzer.analyze(text) == oracle_terms(text)
