"""Incremental per-term posting lists over one sparse feature space.

A :class:`SpaceIndex` maps every term of a row collection (cluster
centroids or managed pages) to the rows containing it, with weights
**pre-normalized** by the row's Euclidean norm — the unit the cosine
accumulators of the exact top-k retrieval (:mod:`repro.index.retrieval`)
want.

Rows are mutable: :meth:`add_row` and :meth:`remove_row` keep the
posting lists and per-row raw vectors in sync, so the index is
maintained incrementally as a directory mutates instead of being
rebuilt per query.  The raw row vectors are kept because the retrieval
layer's final scoring deliberately goes back through the *scalar*
cosine path on them — that is what makes indexed results bit-identical
to a full scan (see docs/SERVING.md, "Indexed retrieval").

The index is **weighting-scheme agnostic**: it posts the *actual
emitted vectors* (whatever :mod:`repro.vsm.schemes` scheme produced
them), never anything re-derived from corpus statistics — so exact
top-k stays exact under Equation 1, BM25, or any future scheme with
non-negative weights, without the index knowing which one is active
(docs/RANKING.md).

Terms are keyed by their :data:`~repro.vsm.interning.VOCABULARY` id,
the id the row vectors already carry, so indexing a row resolves no
strings.
"""

from typing import Dict, Iterator, List, Tuple

from repro.vsm.vector import SparseVector


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


__all__ = ["SpaceIndex"]
