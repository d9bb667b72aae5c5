"""The composed text-analysis pipeline: tokenize -> stopwords -> stem.

Every place the library needs to turn raw text into a bag of terms goes
through a :class:`TextAnalyzer`, so the treatment of form contents and page
contents is guaranteed to be identical (as the paper requires: "a similar
process is used" for PC and FC, Section 2.1).
"""

from collections import Counter
from typing import Dict, Iterable, List, Optional, Set

from repro.text.stemmer import PorterStemmer, memo_put
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize


class TextAnalyzer:
    """Turn raw text into stemmed, stopword-free terms.

    Parameters
    ----------
    stopwords:
        The stopword set to filter against.  Pass an empty set to disable
        stopword removal (used in ablation tests).
    stemmer:
        The stemmer to apply.  Pass None to disable stemming.
    """

    def __init__(
        self,
        stopwords: Optional[Set[str]] = None,
        stemmer: Optional[PorterStemmer] = None,
    ) -> None:
        self.stopwords = STOPWORDS if stopwords is None else stopwords
        self.stemmer = PorterStemmer() if stemmer is None else stemmer
        # Stem cache: web corpora repeat terms heavily, and the stemmer is
        # pure, so memoization is safe and makes vectorization ~5x faster.
        # Bounded like the stemmer's own memo: served requests carry
        # arbitrary words.
        self._cache: Dict[str, str] = {}

    def _stem(self, token: str) -> str:
        cached = self._cache.get(token)
        if cached is None:
            cached = self.stemmer.stem(token) if self.stemmer else token
            memo_put(
                self._cache, token, cached, PorterStemmer.DEFAULT_CACHE_SIZE
            )
        return cached

    def analyze(self, text: str) -> List[str]:
        """Return the list of analyzed terms in ``text`` (order preserved)."""
        return [
            self._stem(token)
            for token in tokenize(text)
            if token not in self.stopwords
        ]

    def analyze_tokens(self, tokens: Iterable[str]) -> List[str]:
        """Analyze pre-tokenized (lowercase) tokens."""
        return [
            self._stem(token)
            for token in tokens
            if token not in self.stopwords
        ]

    def term_frequencies(self, text: str) -> Counter:
        """Return a Counter of analyzed terms in ``text``."""
        return Counter(self.analyze(text))


def default_analyzer() -> TextAnalyzer:
    """Return a fresh analyzer with the library defaults."""
    return TextAnalyzer()
