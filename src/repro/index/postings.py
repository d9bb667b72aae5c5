"""Posting structures over one sparse feature space.

Two row collections score a query by partial cosines, each row's
weights **pre-normalized** by the row's Euclidean norm (``weight *
(1.0 / norm)``) — the unit the exact top-k retrieval
(:mod:`repro.index.retrieval`) wants:

* :class:`SpaceIndex` — mutable per-term lists of ``(row, weight)``
  tuples.  Rows are added and removed one at a time.  It is the write
  delta of :class:`PagePostings`.
* :class:`PagePostings` — the served page rows: a packed, term-major
  base (a term pointer indexed by VOCABULARY id, then row slots and
  pre-normed weights as flat NumPy arrays) plus tombstones and a
  :class:`SpaceIndex` delta for the rows written since the base was
  packed.  The base is repacked, with the delta folded in, on
  :meth:`~PagePostings.build` and :meth:`~PagePostings.compact`, and
  by itself once the postings outside the live base (the delta's plus
  the tombstoned rows') reach the live base's, so a write costs
  amortized constant packing work.

Both keep each row's raw vector, because the retrieval layer's final
scoring goes back through the *scalar* cosine path on them — that is
what makes indexed results bit-identical to a full scan (see
docs/SERVING.md, "Indexed retrieval").  A query's partials
(``partials(query, norm)``) add, per query term in query-term order,
``query weight × (1.0 / query norm) × posted weight`` to each row
holding the term; a row gets at most one posting per term, so the
packed base's one indexed add per term yields the same float as the
tuple lists' dict loop (:func:`accumulate_postings`).

The postings are **weighting-scheme agnostic**: they hold the *actual
emitted vectors* (whatever :mod:`repro.vsm.schemes` scheme produced
them), never anything re-derived from corpus statistics — so exact
top-k stays exact under Equation 1, BM25, or any future scheme with
non-negative weights (docs/RANKING.md).

Terms are keyed by their :data:`~repro.vsm.interning.VOCABULARY` id,
the id the row vectors already carry, so indexing a row resolves no
strings.
"""

from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple,
)

import numpy as np

from repro.vsm.vector import SparseVector


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


class SpaceIndex:
    """Pre-normalized posting lists over one vector space."""

    __slots__ = ("_postings", "_vectors", "n_postings")

    def __init__(self) -> None:
        #: term id -> [(row_id, weight / row_norm)], append-ordered.
        self._postings: Dict[int, List[Tuple[int, float]]] = {}
        self._vectors: Dict[int, SparseVector] = {}
        #: total posting entries (the /metrics gauge).
        self.n_postings = 0

    # ----------------------------------------------------------------
    # Introspection.
    # ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._vectors

    @property
    def n_terms(self) -> int:
        return len(self._postings)

    def row_items(self) -> Iterator[Tuple[int, SparseVector]]:
        """(row_id, raw vector) pairs — what a cached full scan walks."""
        return iter(self._vectors.items())

    def vector(self, row_id: int) -> SparseVector:
        """The raw row vector as indexed (for exact re-scoring)."""
        return self._vectors[row_id]

    def norm(self, row_id: int) -> float:
        """The row vector's (cached) Euclidean norm."""
        return self._vectors[row_id].norm()

    def postings(self, term_id: int) -> List[Tuple[int, float]]:
        """The (row, pre-normalized weight) posting list of ``term_id``
        (empty when the term is unindexed)."""
        return self._postings.get(term_id, _EMPTY)

    def partials(
        self, query: SparseVector, norm: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The touched rows and their partial cosines for ``query``
        (of norm ``norm``), as parallel arrays."""
        partials = accumulate_postings(
            zip(*query.id_arrays()), 1.0 / norm, self.postings
        )
        n = len(partials)
        return (
            np.fromiter(partials.keys(), dtype=np.int64, count=n),
            np.fromiter(partials.values(), dtype=np.float64, count=n),
        )

    # ----------------------------------------------------------------
    # Maintenance.
    # ----------------------------------------------------------------

    def add_row(self, row_id: int, vector: SparseVector) -> None:
        """Index ``vector`` under ``row_id`` (replacing any previous row).

        Zero-norm rows are recorded (so lookups and removals work) but
        post nothing: they cannot match any query, exactly as the scalar
        cosine scores them 0.
        """
        if row_id in self._vectors:
            self.remove_row(row_id)
        norm = vector.norm()
        self._vectors[row_id] = vector
        if norm == 0.0:
            return
        inv = 1.0 / norm
        postings = self._postings
        ids, weights = vector.id_arrays()
        for term_id, weight in zip(ids, weights):
            prenormed = weight * inv
            entry = postings.get(term_id)
            if entry is None:
                postings[term_id] = [(row_id, prenormed)]
            else:
                entry.append((row_id, prenormed))
        self.n_postings += len(ids)

    def remove_row(self, row_id: int) -> bool:
        """Drop a row from every posting list it appears in."""
        vector = self._vectors.pop(row_id, None)
        if vector is None:
            return False
        if vector.norm() == 0.0:
            return True
        postings = self._postings
        for term_id in vector.id_arrays()[0]:
            entry = postings.get(term_id)
            if entry is None:
                continue
            kept = [(row, weight) for row, weight in entry if row != row_id]
            self.n_postings -= len(entry) - len(kept)
            if not kept:
                del postings[term_id]
            else:
                postings[term_id] = kept
        return True

    def clear(self) -> None:
        self._postings = {}
        self._vectors = {}
        self.n_postings = 0


_EMPTY: List[Tuple[int, float]] = []
_NO_SLOTS = np.zeros(0, dtype=np.int32)
_NO_PARTIALS = np.zeros(0, dtype=np.float64)


class PagePostings:
    """The page rows behind ``/search?scope=pages``: a packed base,
    tombstones and a :class:`SpaceIndex` delta.

    The base is term-major: the postings of VOCABULARY id ``t`` are
    ``slots[pointer[t]:pointer[t + 1]]`` and
    ``weights[pointer[t]:pointer[t + 1]]``, where a slot is a base row's
    position and ``rows[slot]`` its row id (ascending).  A write never
    edits the arrays: it tombstones the row's base slot (when it has
    one) and puts a new or replaced row into the delta, so every row
    lives in exactly one of the two.  :attr:`n_postings` and
    :attr:`n_terms` count the live rows only, as one
    :class:`SpaceIndex` over the same rows would.
    """

    __slots__ = (
        "_pointer", "_slots", "_weights", "_rows", "_alive", "_base",
        "_dead_postings", "_delta", "_term_rows", "n_postings", "n_terms",
    )

    def __init__(self) -> None:
        self._delta = SpaceIndex()
        self.build([], [])

    # ----------------------------------------------------------------
    # Introspection.
    # ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._base) + len(self._delta)

    def vector(self, row_id: int) -> SparseVector:
        """The raw row vector as indexed (for exact re-scoring)."""
        vector = self._base.get(row_id)
        if vector is None:
            return self._delta.vector(row_id)
        return vector

    def partials(
        self, query: SparseVector, norm: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The touched live rows and their partial cosines for ``query``
        (of norm ``norm``), as parallel arrays: base rows first, then
        delta rows.

        The base's postings of the query's terms are taken in
        query-term order, and ``np.bincount`` adds each row's products
        one by one in that order, starting from 0.0: the additions the
        dict loop of :func:`accumulate_postings` makes.
        """
        inv_norm = 1.0 / norm
        pointer, slots, posted = self._pointer, self._slots, self._weights
        width = len(pointer) - 1
        hits, products = [], []
        for term, weight in zip(*query.id_arrays()):
            weight = weight * inv_norm
            if weight <= 0.0 or term >= width:
                continue
            lo, hi = pointer[term], pointer[term + 1]
            if lo < hi:
                hits.append(slots[lo:hi])
                products.append(weight * posted[lo:hi])
        if len(hits) == 1:
            hit, values = hits[0], products[0]
        elif hits:
            joined = np.concatenate(hits)
            hit = np.bincount(joined).nonzero()[0]
            values = np.bincount(joined, np.concatenate(products))[hit]
        else:
            hit, values = _NO_SLOTS, _NO_PARTIALS
        if self._alive is not None:
            live = self._alive[hit]
            hit, values = hit[live], values[live]
        rows = self._rows[hit]
        if len(self._delta):
            delta_rows, delta_values = self._delta.partials(query, norm)
            rows = np.concatenate([rows, delta_rows])
            values = np.concatenate([values, delta_values])
        return rows, values

    # ----------------------------------------------------------------
    # Maintenance.
    # ----------------------------------------------------------------

    def build(
        self, rows: Sequence[int], vectors: Sequence[SparseVector]
    ) -> None:
        """Pack ``vectors`` (under the ascending row ids ``rows``) as the
        whole base, with no tombstones and an empty delta.

        One NumPy pass: each row's weights times ``1.0 / norm`` (the
        float :meth:`SpaceIndex.add_row` posts), then a stable sort by
        term id.  Zero-norm rows get a slot but post nothing.
        """
        norms = [vector.norm() for vector in vectors]
        posted = [
            (slot, vector)
            for slot, (vector, norm) in enumerate(zip(vectors, norms))
            if norm > 0.0
        ]
        lengths = [len(vector) for _, vector in posted]
        ids = np.frombuffer(
            b"".join(vector.id_arrays()[0] for _, vector in posted),
            dtype=np.int64,
        )
        weights = np.frombuffer(
            b"".join(vector.id_arrays()[1] for _, vector in posted),
            dtype=np.float64,
        )
        inv = 1.0 / np.array([norm for norm in norms if norm > 0.0])
        prenormed = weights * np.repeat(inv, lengths)
        owner = np.repeat(
            np.array([slot for slot, _ in posted], dtype=np.int32), lengths
        )
        order = np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=0).astype(np.int32)
        pointer = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=pointer[1:])
        self._pointer = pointer
        self._slots = owner[order]
        self._weights = prenormed[order]
        self._rows = np.array(rows, dtype=np.int64)
        self._alive = None
        self._base: Dict[int, SparseVector] = dict(zip(rows, vectors))
        self._dead_postings = 0
        self._delta.clear()
        #: VOCABULARY id -> live rows holding it (the n_terms count).
        self._term_rows = counts
        self.n_postings = int(ids.size)
        self.n_terms = int(np.count_nonzero(counts))

    def compact(self) -> None:
        """Repack the base from the live rows, delta folded in."""
        live = list(self._base.items())
        live.extend(self._delta.row_items())
        live.sort(key=lambda item: item[0])
        self.build([row for row, _ in live], [vector for _, vector in live])

    def add_row(self, row_id: int, vector: SparseVector) -> None:
        """Index ``vector`` under ``row_id`` (replacing any previous row)
        in the delta."""
        self._drop(row_id)
        self._delta.add_row(row_id, vector)
        self._count(vector, 1)
        self._compact_if_due()

    def remove_row(self, row_id: int) -> bool:
        """Drop a row: out of the delta, or tombstoned in the base."""
        if not self._drop(row_id):
            return False
        self._compact_if_due()
        return True

    def _drop(self, row_id: int) -> bool:
        vector = self._base.pop(row_id, None)
        if vector is not None:
            if self._alive is None:
                self._alive = np.ones(len(self._rows), dtype=bool)
            self._alive[np.searchsorted(self._rows, row_id)] = False
            if vector.norm() > 0.0:
                self._dead_postings += len(vector)
        elif row_id in self._delta:
            vector = self._delta.vector(row_id)
            self._delta.remove_row(row_id)
        else:
            return False
        self._count(vector, -1)
        return True

    def _count(self, vector: SparseVector, step: int) -> None:
        """Move the live counts by one row of ``vector``."""
        if vector.norm() == 0.0:
            return
        ids = np.frombuffer(vector.id_arrays()[0], dtype=np.int64)
        self.n_postings += step * ids.size
        counts = self._term_rows
        top = int(ids.max()) + 1
        if top > len(counts):
            grown = np.zeros(max(top, 2 * len(counts)), dtype=np.int32)
            grown[:len(counts)] = counts
            self._term_rows = counts = grown
        before = counts[ids]
        counts[ids] = before + step
        emptied_or_new = before == (0 if step > 0 else 1)
        self.n_terms += step * int(np.count_nonzero(emptied_or_new))

    def _compact_if_due(self) -> None:
        """The doubling rule: repack once the postings outside the live
        base reach the live base's."""
        outside = self._delta.n_postings + self._dead_postings
        if outside and outside >= self.n_postings - self._delta.n_postings:
            self.compact()


__all__ = ["PagePostings", "SpaceIndex", "accumulate_postings"]
