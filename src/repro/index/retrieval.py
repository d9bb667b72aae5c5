"""Exact top-k retrieval over posting lists — term-at-a-time with
upper-bound pruning.

The algorithm is the classic two-phase TAAT scheme, arranged so that
its results are **bit-identical** to the full-scan reference paths:

1. *Accumulate with bounds.*  Query terms (weights pre-divided by the
   query norm) are processed in descending order of their maximum
   possible score contribution ``q_w * max_prenormed(term)``, ties by
   term string.  Posting lists are keyed by
   :data:`~repro.vsm.interning.VOCABULARY` id; only the query's own
   terms are resolved to strings, for that tie order.
   Walking a term's posting list adds its contribution to every row
   containing it.  After each term, if at least ``k`` rows have been
   touched and the sum of the *remaining* terms' bounds falls below the
   running k-th best partial score, the loop stops: no untouched row
   can reach the top k any more.

2. *Prune and re-score exactly.*  Touched rows whose upper bound
   (partial score + remaining bound) cannot reach the k-th best are
   dropped.  The survivors — a superset of the true top k — are scored
   through the caller's **exact** scorer: the same scalar
   ``cosine_similarity`` / ``FormPageSimilarity`` arithmetic the
   full-scan path runs, over the same stored vectors, so every returned
   score is the same float the scan would produce.  Partial-sum floats
   from phase 1 never reach the caller; they only steer pruning.

Float safety: the pruning comparisons use small relative+absolute
margins (bounds inflated, thresholds deflated), so accumulated rounding
in the bookkeeping sums can never prune a row that exact arithmetic
would keep.  The margins only make pruning marginally more conservative.
"""

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.index.postings import SpaceIndex
from repro.vsm.interning import VOCABULARY

#: Pruning-margin knobs: bounds are inflated and thresholds deflated by
#: this relative factor (plus an absolute floor) before being compared,
#: so float rounding in the bookkeeping can never cause a lossy prune.
_MARGIN_REL = 1e-9
_MARGIN_ABS = 1e-12


def _inflate(value: float) -> float:
    return value * (1.0 + _MARGIN_REL) + _MARGIN_ABS


def _deflate(value: float) -> float:
    return value * (1.0 - _MARGIN_REL) - _MARGIN_ABS


@dataclass
class RetrievalStats:
    """What one indexed query cost, for the ``index_*`` metrics.

    ``rows_total`` is the collection size a full scan would have scored;
    ``rows_touched`` how many rows the accumulators reached;
    ``rows_scored`` how many survived bound pruning and were re-scored
    exactly.  ``terms_total`` / ``terms_processed`` count posting lists
    considered vs actually walked (the early-stop saving).
    """

    rows_total: int = 0
    rows_touched: int = 0
    rows_scored: int = 0
    terms_total: int = 0
    terms_processed: int = 0


def top_k_exact(
    space: SpaceIndex,
    query,
    k: int,
    score_exact: Callable[[int], float],
    stats: Optional[RetrievalStats] = None,
    tie_key: Optional[Callable[[int], object]] = None,
    norm: Optional[float] = None,
) -> List[Tuple[int, float]]:
    """The exact top-``k`` rows of ``space`` for ``query``, highest
    score first.

    ``query`` is a :class:`~repro.vsm.vector.SparseVector` (a combined
    PC+FC query); its weights are pre-divided by its norm (``norm``, or
    ``query.norm()`` when omitted — a
    :class:`~repro.vsm.vector.KeywordQuery` passes its full norm) so
    partial sums are cosine-comparable.  ``score_exact(row_id)`` must
    return the row's full-precision score via the same arithmetic as
    the full-scan reference; it is invoked only for rows surviving
    bound pruning.
    Rows with non-positive exact scores are dropped (matching the scan
    paths, which skip them).  Ties break toward the lower ``row_id``, or
    toward the lower ``tie_key(row_id)`` when given (page search breaks
    ties by URL) — boundary ties are safe because a row tying the k-th
    exact score can never be pruned (its upper bound is at least the
    pruning threshold).

    Returns ``[(row_id, score)]`` sorted by ``(-score, tie key)``.
    """
    if stats is None:
        stats = RetrievalStats()
    rows_total = len(space)
    stats.rows_total += rows_total
    if k <= 0 or rows_total == 0:
        return []
    if norm is None:
        norm = query.norm()
    if norm == 0.0:
        return []
    inv = 1.0 / norm

    # Bound-ordered term entries: (bound, term, term id, scaled weight).
    entries: List[Tuple[float, str, int, float]] = []
    term_of = VOCABULARY.term
    for term_id, weight in zip(*query.id_arrays()):
        weight = weight * inv
        if weight <= 0.0:
            continue
        bound = weight * space.max_prenormed(term_id)
        if bound > 0.0:
            entries.append((bound, term_of(term_id), term_id, weight))
    stats.terms_total += len(entries)
    if not entries:
        return []
    entries.sort(key=lambda entry: (-entry[0], entry[1]))

    suffix = [0.0] * (len(entries) + 1)
    for index in range(len(entries) - 1, -1, -1):
        suffix[index] = suffix[index + 1] + entries[index][0]

    accumulated: Dict[int, float] = {}
    remaining = 0.0
    processed = len(entries)
    for index, (_, _, term_id, weight) in enumerate(entries):
        if len(accumulated) >= k:
            remaining = suffix[index]
            kth = heapq.nlargest(k, accumulated.values())[-1]
            if _inflate(remaining) < _deflate(kth):
                processed = index
                break
        for row, prenormed in space.postings(term_id):
            if row in accumulated:
                accumulated[row] += weight * prenormed
            else:
                accumulated[row] = weight * prenormed
    else:
        remaining = 0.0
    stats.terms_processed += processed
    stats.rows_touched += len(accumulated)

    if not accumulated:
        return []

    # Candidate pruning: a touched row can finish at most ``partial +
    # remaining``; rows that cannot reach the running k-th best under
    # that bound are never scored exactly.  (With every term processed,
    # ``remaining`` is 0 and the partials themselves are the bounds —
    # the margins absorb their float-ordering drift from exact scores.)
    if len(accumulated) > k:
        kth = heapq.nlargest(k, accumulated.values())[-1]
        threshold = _deflate(kth)
        candidates = [
            row for row, partial in accumulated.items()
            if _inflate(partial + remaining) >= threshold
        ]
    else:
        candidates = list(accumulated)
    candidates.sort()
    stats.rows_scored += len(candidates)

    scored = [(row, score_exact(row)) for row in candidates]
    scored = [(row, score) for row, score in scored if score > 0.0]
    if tie_key is None:
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
    else:
        scored.sort(key=lambda pair: (-pair[1], tie_key(pair[0])))
    return scored[:k]


__all__ = [
    "RetrievalStats",
    "top_k_exact",
]
