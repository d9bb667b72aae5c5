"""The Porter stemming algorithm (Porter, 1980), implemented from scratch.

The paper obtains terms "by stemming all the distinct words" in form and
page contents (Section 2.1); its example output (``privaci``, ``shop``,
``copyright``) is exactly what the classic Porter algorithm produces.

This is a faithful implementation of the original five-step algorithm as
published in *An algorithm for suffix stripping* (Program, 14(3):130-137).
It intentionally reproduces the original's quirks (e.g. ``agreed`` ->
``agre``) rather than the later "Porter2"/Snowball revisions, because the
2007 paper predates wide Snowball adoption in this literature.
"""

from typing import List


def memo_put(cache: dict, key: str, value: str, cap: int) -> None:
    """Store ``key -> value`` in ``cache``, first evicting the oldest
    entries until it holds fewer than ``cap`` (FIFO; ``cap`` 0 stores
    nothing).

    Insertion order is all ``dict`` gives cheaply, and any bounded policy
    works for a pure function.  The memo may be shared across threads
    (concurrent service requests).  Single
    dict ops are atomic under the GIL, but another thread can evict
    between ``iter()`` and ``pop()`` — the collision is tolerated rather
    than locked against, which would cost every call and break
    process-pool pickling.  Evicting in a loop (not once) keeps such a
    collision from leaving the memo permanently one entry larger, so it
    overshoots ``cap`` by at most one entry per concurrent writer.
    """
    if not cap:
        return
    while len(cache) >= cap:
        try:
            cache.pop(next(iter(cache)), None)
        except (StopIteration, RuntimeError, KeyError):
            pass
    cache[key] = value


class PorterStemmer:
    """Porter stemmer with a bounded memo table.

    The algorithm itself is stateless and pure; web corpora repeat terms
    heavily, so each instance memoizes ``stem`` results in a size-capped
    dict (FIFO eviction, :func:`memo_put`).  The cache is plain data, so
    instances stay picklable for process pools; ``cache_hits`` /
    ``cache_misses`` feed the ingestion micro-bench.

    Usage::

        stemmer = PorterStemmer()
        stemmer.stem("privacy")   # -> 'privaci'
        stemmer.stem("flights")   # -> 'flight'
    """

    _VOWELS = "aeiou"

    DEFAULT_CACHE_SIZE = 50_000

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.cache_size = max(0, int(cache_size))
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Measure and shape predicates, defined on a word prefix ``word[:j+1]``
    # following Porter's original formulation.
    # ------------------------------------------------------------------

    def _is_consonant(self, word: str, i: int) -> bool:
        """True when ``word[i]`` is a consonant in Porter's sense.

        ``y`` counts as a consonant when it follows a vowel position and as
        a vowel when it follows a consonant (``toy`` -> t,o,y=C; ``syzygy``).
        """
        ch = word[i]
        if ch in self._VOWELS:
            return False
        if ch == "y":
            if i == 0:
                return True
            return not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem_part: str) -> int:
        """Return m, the number of VC sequences in ``stem_part``.

        Porter writes a word as [C](VC)^m[V]; m drives most of the rules.
        """
        m = 0
        i = 0
        n = len(stem_part)
        # Skip the optional initial consonant run.
        while i < n and self._is_consonant(stem_part, i):
            i += 1
        while i < n:
            # Vowel run.
            while i < n and not self._is_consonant(stem_part, i):
                i += 1
            if i >= n:
                break
            # Consonant run closes a VC pair.
            while i < n and self._is_consonant(stem_part, i):
                i += 1
            m += 1
        return m

    def _contains_vowel(self, stem_part: str) -> bool:
        return any(not self._is_consonant(stem_part, i) for i in range(len(stem_part)))

    def _ends_double_consonant(self, word: str) -> bool:
        if len(word) < 2:
            return False
        if word[-1] != word[-2]:
            return False
        return self._is_consonant(word, len(word) - 1)

    def _ends_cvc(self, word: str) -> bool:
        """True for a consonant-vowel-consonant ending, last not w, x or y."""
        if len(word) < 3:
            return False
        if not self._is_consonant(word, len(word) - 3):
            return False
        if self._is_consonant(word, len(word) - 2):
            return False
        if not self._is_consonant(word, len(word) - 1):
            return False
        return word[-1] not in "wxy"

    # ------------------------------------------------------------------
    # Rule application helper.
    # ------------------------------------------------------------------

    def _replace_suffix(self, word: str, suffix: str, replacement: str, min_m: int) -> str:
        """Replace ``suffix`` with ``replacement`` if the stem measure allows.

        Returns the (possibly unchanged) word.  ``min_m`` is the minimum
        measure of the candidate stem for the rule to fire; ``-1`` means
        "fire unconditionally when the suffix matches".
        """
        if not word.endswith(suffix):
            return word
        stem_part = word[: len(word) - len(suffix)]
        if min_m < 0 or self._measure(stem_part) > min_m:
            return stem_part + replacement
        return word

    # ------------------------------------------------------------------
    # The five steps.
    # ------------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem_part = word[:-3]
            if self._measure(stem_part) > 0:
                return word[:-1]
            return word
        fired = False
        if word.endswith("ed"):
            stem_part = word[:-2]
            if self._contains_vowel(stem_part):
                word = stem_part
                fired = True
        elif word.endswith("ing"):
            stem_part = word[:-3]
            if self._contains_vowel(stem_part):
                word = stem_part
                fired = True
        if fired:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = [
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ]

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_RULES:
            if word.endswith(suffix):
                return self._replace_suffix(word, suffix, replacement, 0)
        return word

    _STEP3_RULES = [
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ]

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_RULES:
            if word.endswith(suffix):
                return self._replace_suffix(word, suffix, replacement, 0)
        return word

    _STEP4_SUFFIXES = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if self._measure(stem_part) > 1:
                    return stem_part
                return word
        # (m>1 and (*S or *T)) ION -> drop ION
        if word.endswith("ion"):
            stem_part = word[:-3]
            if stem_part and stem_part[-1] in "st" and self._measure(stem_part) > 1:
                return stem_part
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem_part = word[:-1]
            m = self._measure(stem_part)
            if m > 1:
                return stem_part
            if m == 1 and not self._ends_cvc(stem_part):
                return stem_part
        return word

    def _step5b(self, word: str) -> str:
        if self._measure(word) > 1 and self._ends_double_consonant(word) and word.endswith("l"):
            return word[:-1]
        return word

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (assumed lowercase)."""
        if len(word) <= 2:
            # Porter: strings of length 1 or 2 are left as-is.
            return word
        cached = self._cache.get(word)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        stemmed = self.stem_uncached(word)
        memo_put(self._cache, word, stemmed, self.cache_size)
        return stemmed

    def stem_uncached(self, word: str) -> str:
        """The Porter stem of ``word``, bypassing the memo (for callers
        that keep their own, like :class:`~repro.text.analyzer.TextAnalyzer`)."""
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    def stem_all(self, words: List[str]) -> List[str]:
        """Stem every word in ``words`` preserving order."""
        return [self.stem(word) for word in words]


_DEFAULT = PorterStemmer()


def stem(word: str) -> str:
    """Module-level convenience wrapper around a shared stemmer."""
    return _DEFAULT.stem(word)
