"""Exact top-k retrieval over row collections — approximate partials,
then rescore the rounding window.

Two steps, arranged so that the results are **bit-identical** to the
full-scan reference paths:

1. *Partials.*  The row collection scores the query approximately:
   every row sharing a term with it gets a partial cosine.  A posting
   collection (:class:`~repro.index.postings.SpaceIndex`,
   :class:`~repro.index.postings.PagePostings`) adds, per query term,
   ``query weight / query norm × posted weight``, weights pre-divided
   by the row norm; :class:`CentroidRows` scores its k rows through one
   compiled centroid block (the query's term rows gathered, rows
   pre-divided by the centroid norms, one matrix-vector product, times
   ``1 / query norm``).  Rows sharing no term with the query are never
   candidates and score 0.

2. *Rescore the window.*  The candidates are the rows whose partial
   lies within :func:`~repro.vsm.vector.rescore_window` of the k-th
   largest partial (every touched row when at most ``k`` were touched).
   The window's docstring proves that every row the scalar scan ranks
   in the top k is among them.  Each candidate is scored through the
   caller's **exact** scorer: the same scalar ``cosine_similarity``
   arithmetic the full-scan path runs, over the same stored vectors, so
   every returned score is the same float the scan would produce.
   Partials only pick candidates; they never reach the caller.

It is the same rule :meth:`~repro.core.similarity.FormPageSimilarity.
rescored_argmax` applies to Section 5's classification and Algorithm
1's assignment.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.simengine import _SpaceBlock
from repro.index.postings import accumulate_postings
from repro.vsm.vector import SparseVector, rescore_window


@dataclass
class RetrievalStats:
    """What indexed queries cost, for the ``index_*`` metrics.

    ``rows_total`` is the collection size a full scan would have scored;
    ``rows_scored`` how many rows fell in the rescore window and were
    scored exactly.
    """

    rows_total: int = 0
    rows_scored: int = 0


class CentroidRows:
    """k rows — the combined (PC + FC) centroids behind cluster search —
    scored through one compiled block
    (:class:`~repro.core.simengine._SpaceBlock`'s layout).

    The block's rows are divided by the centroids' norms once (an empty
    centroid's row divides by ``inf`` to zeros), so a query's kernel
    score is its weights times ``1.0 / query norm``, dotted with the
    gathered rows of its terms: the posting partial's arithmetic,
    summed in another order.  Immutable, like the centroids: a write
    that replaces a centroid builds new rows, and the block is compiled
    on their first query (two readers racing to compile it compile the
    same block).
    """

    __slots__ = ("vectors", "_block")

    def __init__(self, vectors: Sequence[SparseVector]) -> None:
        self.vectors: Tuple[SparseVector, ...] = tuple(vectors)
        #: (VOCABULARY id -> block row, normalized block rows)
        self._block: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.vectors)

    def _posted(self) -> List[SparseVector]:
        return [vector for vector in self.vectors if vector.norm() > 0.0]

    @property
    def n_postings(self) -> int:
        """Entries of the rows that can match a query (the /metrics
        gauge a posting list over the same rows would report)."""
        return sum(len(vector) for vector in self._posted())

    @property
    def n_terms(self) -> int:
        """Distinct terms of the rows that can match a query."""
        return len(set().union(*(v.id_arrays()[0] for v in self._posted())))

    def partials(
        self, query: SparseVector, norm: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rows sharing a term with ``query`` (a positive kernel
        score; weights are non-negative) and those scores."""
        block = self._block
        if block is None:
            compiled = _SpaceBlock.build(self.vectors)
            block = self._block = (
                compiled.column, compiled.rows / compiled.norms
            )
        column, rows = block
        ids, weights = query.id_arrays()
        scores = np.dot(np.frombuffer(weights), rows.take(
            column.take(np.frombuffer(ids, np.int64), mode="clip"), axis=0
        ))
        scores *= 1.0 / norm
        touched = scores.nonzero()[0]
        return touched, scores[touched]


#: Touched rows up to which the window is found in Python: below about
#: this many, NumPy's fixed cost per call exceeds a sort of the list.
_PYTHON_WINDOW = 48


def _window(
    rows: np.ndarray, partials: np.ndarray, k: int, terms: int
) -> List[int]:
    """The ``rows`` whose partial lies within
    :func:`~repro.vsm.vector.rescore_window` (over ``terms`` query
    terms) of the k-th largest partial; all of them when there are at
    most ``k``.  Both routes compare the same floats."""
    n = len(partials)
    if n <= k:
        return rows.tolist()
    if n <= _PYTHON_WINDOW:
        values = partials.tolist()
        kth = sorted(values)[-k]
        window = rescore_window(kth, terms)
        return [
            row for row, partial in zip(rows.tolist(), values)
            if kth - partial <= window
        ]
    kth = float(np.partition(partials, n - k)[n - k])
    return rows[kth - partials <= rescore_window(kth, terms)].tolist()


def top_k_exact(
    space,
    query,
    k: int,
    score_exact: Callable[[int], float],
    stats: Optional[RetrievalStats] = None,
    tie_key: Optional[Callable[[int], object]] = None,
    norm: Optional[float] = None,
) -> List[Tuple[int, float]]:
    """The exact top-``k`` rows of ``space`` for ``query``, highest
    score first.

    ``space`` is a row collection: ``len(space)`` rows and
    ``space.partials(query, norm)``, the touched rows and their
    partials as parallel arrays.

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
    size = len(space)
    stats.rows_total += size
    if k <= 0 or not size:
        return []
    if norm is None:
        norm = query.norm()
    if norm == 0.0:
        return []

    candidates = _window(*space.partials(query, norm), k, len(query))
    stats.rows_scored += len(candidates)

    ranked = []
    for row in candidates:
        score = score_exact(row)
        if score > 0.0:
            ranked.append((-score, row if tie_key is None else tie_key(row), row))
    ranked.sort()
    return [(row, -negated) for negated, _, row in ranked[:k]]


__all__ = [
    "CentroidRows",
    "RetrievalStats",
    "accumulate_postings",
    "top_k_exact",
]
