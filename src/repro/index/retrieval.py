"""Exact top-k retrieval over posting lists — accumulate, then rescore
the rounding window.

Two steps, arranged so that the results are **bit-identical** to the
full-scan reference paths:

1. *Accumulate.*  Every query term's posting list (keyed by
   :data:`~repro.vsm.interning.VOCABULARY` id, weights pre-divided by
   the row norm) adds ``query weight / query norm × posted weight`` to
   each row containing the term (:func:`accumulate_postings`).  A row's
   partial sum is its cosine up to rounding; rows sharing no term with
   the query are never touched and score 0.

2. *Rescore the window.*  The candidates are the rows whose partial
   sum lies within :func:`~repro.vsm.vector.rescore_window` of the k-th
   largest partial (every touched row when at most ``k`` were touched).
   The window's docstring proves that every row the scalar scan ranks
   in the top k is among them.  Each candidate is scored through the
   caller's **exact** scorer: the same scalar ``cosine_similarity``
   arithmetic the full-scan path runs, over the same stored vectors, so
   every returned score is the same float the scan would produce.
   Partial sums only pick candidates; they never reach the caller.

It is the same rule :meth:`~repro.core.similarity.FormPageSimilarity.
rescored_argmax` applies to Section 5's classification and Algorithm
1's assignment.
"""

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.index.postings import SpaceIndex
from repro.vsm.vector import rescore_window


@dataclass
class RetrievalStats:
    """What indexed queries cost, for the ``index_*`` metrics.

    ``rows_total`` is the collection size a full scan would have scored;
    ``rows_scored`` how many rows fell in the rescore window and were
    scored exactly.
    """

    rows_total: int = 0
    rows_scored: int = 0


def accumulate_postings(
    terms: Iterable[Tuple[Hashable, float]],
    inv_norm: float,
    postings: Callable[[Hashable], List[Tuple[int, float]]],
) -> Dict[int, float]:
    """Each touched row's partial cosine: the sum, over the query's
    ``(term, weight)`` pairs, of ``weight × inv_norm`` times the row's
    posted (pre-normalized) weight, added in query-term order.  Terms of
    non-positive scaled weight are skipped.  ``postings(term)`` returns
    the term's ``(row, prenormed weight)`` list."""
    partials: Dict[int, float] = {}
    get = partials.get
    for term, weight in terms:
        weight = weight * inv_norm
        if weight <= 0.0:
            continue
        for row, prenormed in postings(term):
            partials[row] = get(row, 0.0) + weight * prenormed
    return partials


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
    PC+FC query); its weights are divided by its norm (``norm``, or
    ``query.norm()`` when omitted — a
    :class:`~repro.vsm.vector.KeywordQuery` passes its full norm) so
    partial sums are cosines up to rounding.  ``score_exact(row_id)``
    must return the row's score via the same arithmetic as the
    full-scan reference, over the norms ``space`` cached; it is invoked
    only for rows in the rescore window.  Rows with non-positive exact
    scores are dropped (matching the scan paths, which skip them).  Ties
    break toward the lower ``row_id``, or toward the lower
    ``tie_key(row_id)`` when given (page search breaks ties by URL):
    every row tying the k-th exact score is in the window, so the cut
    through a tie group is the scan's.

    Returns ``[(row_id, score)]`` sorted by ``(-score, tie key)``.
    """
    if stats is None:
        stats = RetrievalStats()
    stats.rows_total += len(space)
    if k <= 0 or not len(space):
        return []
    if norm is None:
        norm = query.norm()
    if norm == 0.0:
        return []

    partials = accumulate_postings(
        zip(*query.id_arrays()), 1.0 / norm, space.postings
    )
    if len(partials) > k:
        kth = heapq.nlargest(k, partials.values())[-1]
        window = rescore_window(kth, len(query))
        candidates = [
            row for row, partial in partials.items() if kth - partial <= window
        ]
    else:
        candidates = list(partials)
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
    "accumulate_postings",
    "top_k_exact",
]
