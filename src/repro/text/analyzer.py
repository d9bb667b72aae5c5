"""The composed text-analysis pipeline: tokenize -> stopwords -> stem.

Every place the library needs to turn raw text into a bag of terms goes
through a :class:`TextAnalyzer`, so the treatment of form contents and page
contents is guaranteed to be identical (as the paper requires: "a similar
process is used" for PC and FC, Section 2.1).
"""

from typing import Dict, List, Optional, Set

from repro.text.stemmer import PorterStemmer, memo_put
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import MAX_TOKEN_LEN, MIN_TOKEN_LEN, _WORD_RE

_findall = _WORD_RE.findall


class TextAnalyzer:
    """Turn raw text into stemmed, stopword-free terms.

    Parameters
    ----------
    stopwords:
        The stopword set to filter against.  Pass an empty set to disable
        stopword removal (used in ablation tests).
    stemmer:
        The stemmer to apply (default: a :class:`PorterStemmer`).  The
        analyzer memoizes terms itself and calls the stemmer's
        :meth:`~PorterStemmer.stem_uncached` on a miss, so the stemmer's
        own memo stays empty.

    Both are read when a raw token is first seen and the result is
    memoized, so neither may change after the first :meth:`analyze`.
    """

    def __init__(
        self,
        stopwords: Optional[Set[str]] = None,
        stemmer: Optional[PorterStemmer] = None,
    ) -> None:
        self.stopwords = STOPWORDS if stopwords is None else stopwords
        self.stemmer = PorterStemmer() if stemmer is None else stemmer
        # Raw-token memo (the only one: see ``stemmer``): each word the
        # tokenizer matches, as written, maps to its term, or to "" when
        # length or the stopword list drops it.  Web corpora repeat
        # words heavily and every step is pure, so memoization is safe
        # and makes vectorization ~5x faster.  Bounded like the
        # stemmer's own memo: served requests carry arbitrary words.
        self._cache: Dict[str, str] = {}

    def _term_of(self, raw: str) -> str:
        """Look up or compute (and memoize) the term of one raw match."""
        cache = self._cache
        term = cache.get(raw)
        if term is None:
            if len(raw) > MAX_TOKEN_LEN + 1:
                # At most one apostrophe is stripped, so the token is too
                # long and always dropped.  Not memoized: the memo is
                # capped by entries, and an unbounded key would let
                # hostile text pin its full size there.
                return ""
            token = raw.replace("'", "").lower()
            if (
                MIN_TOKEN_LEN <= len(token) <= MAX_TOKEN_LEN
                and token not in self.stopwords
            ):
                term = self.stemmer.stem_uncached(token)
            else:
                term = ""
            memo_put(cache, raw, term, PorterStemmer.DEFAULT_CACHE_SIZE)
        return term

    def analyze(self, text: str) -> List[str]:
        """Return the list of analyzed terms in ``text`` (order preserved)."""
        raws = _findall(text)
        terms = list(map(self._cache.get, raws))
        if None in terms:
            term_of = self._term_of
            terms = [
                term_of(raw) if term is None else term
                for raw, term in zip(raws, terms)
            ]
        return list(filter(None, terms))


def default_analyzer() -> TextAnalyzer:
    """Return a fresh analyzer with the library defaults."""
    return TextAnalyzer()
