"""Batched sparse similarity engine — the compiled side of Equation 3.

Every hot path of the reproduction (Algorithm 1's assignment loop,
Algorithm 3's hub-distance matrix, incremental cohesion, the explorer's
query scoring, the schema baseline) is some batch of Equation-3 cosines.
Computing them pair-by-pair caps corpus size; this module compiles a
collection once into per-row id and weight arrays and serves every
batched shape from that one representation:

* :meth:`SimilarityEngine.pairwise` — the full n x n similarity matrix
  as one all-pairs kernel per feature space;
* :meth:`SimilarityEngine.kmeans` — Algorithm 1's loop, the generic
  :func:`repro.clustering.kmeans.kmeans` by construction: each pass
  scores the pages against the k centroids with the kernel behind
  :meth:`~repro.core.similarity.FormPageSimilarity.best` and decides
  with the same scalar rescore, so it assigns on the scalar floats.

Rows are the vectors' own :mod:`array` buffers over the process-wide
:data:`~repro.vsm.interning.VOCABULARY` ids — the engine keeps no term
table of its own and resolves no strings.  The all-pairs matrix is one
NumPy kernel over the normalized rows: a dense block, transposed, over
the collection's own term union, summed in each row's stored term
order (the order of a CSR matmul, so its floats are the same).  The
page x centroid kernel gathers rows of a compiled centroid block
(:class:`_SpaceBlock`, the block ``best`` scans) by the pages' packed
term ids and sums them per page.  The engine holds no Equation-3
configuration of its own: it compiles the spaces its
:class:`~repro.core.similarity.FormPageSimilarity` names
(``similarity.spaces``) and combines per-space cosines with that
object's literal expression (``similarity.combine``), never
algebraically rearranged, so the all-pairs matrix agrees with the
scalar path to well below 1e-12.

The engine never changes Eq. 1-6 semantics — it only changes how the
same arithmetic is batched.
"""

import time
from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.form_page import centroid_of
from repro.vsm.vector import SparseVector

#: Upper bound on the dense term x column block
#: :meth:`_Space.pairwise` holds at once.
PAIRWISE_BLOCK_BYTES = 8 << 20

#: Upper bound on the gathered products
#: :meth:`_Space.centroid_cosines` holds at once.
KERNEL_BLOCK_BYTES = 8 << 20


@dataclass
class EngineStats:
    """Instrumentation counters for one engine, or rolled up over a
    :class:`~repro.core.similarity.FormPageSimilarity`'s engines and
    scalar calls.

    ``comparisons`` counts pair-similarity equivalents: a pairwise call
    over n items adds n*(n-1)/2, an assignment pass adds pages x
    centroids, a scalar call adds one.  ``build_seconds`` is time spent
    compiling collections into the packed representation.
    """

    n_pages: int = 0
    n_terms: int = 0
    build_seconds: float = 0.0
    comparisons: int = 0
    #: Constant tag naming the one batched Equation-3 path; kept so the
    #: ``/stats`` engine block and ``--profile`` output keep their keys.
    backend: str = "engine"

    def snapshot(self) -> "EngineStats":
        """An immutable copy (for surfacing through results)."""
        return replace(self)

    def merge(self, other: "EngineStats") -> None:
        """Fold another instance's counters into this one (rollup).

        Counters add; sizes take the max (they describe the largest
        collection either side compiled).
        """
        self.n_pages = max(self.n_pages, other.n_pages)
        self.n_terms = max(self.n_terms, other.n_terms)
        self.build_seconds += other.build_seconds
        self.comparisons += other.comparisons

    def as_dict(self) -> Dict[str, object]:
        """Counters as plain data — the /metrics rollup shape."""
        return {
            "backend": self.backend,
            "n_pages": self.n_pages,
            "n_terms": self.n_terms,
            "build_seconds": self.build_seconds,
            "comparisons": self.comparisons,
        }

    def summary(self) -> str:
        return (
            f"backend={self.backend} pages={self.n_pages} "
            f"terms={self.n_terms} build={self.build_seconds:.3f}s "
            f"comparisons={self.comparisons}"
        )


class _Space:
    """One compiled feature space (PC or FC) as per-row arrays.

    Rows are the collection's vectors as they are: term ids are
    :data:`~repro.vsm.interning.VOCABULARY` ids, and the id and weight
    arrays are the vectors' own, shared rather than copied.  Only the
    normalized weights (``nrm``, aligned with each row's ids) are new,
    and only the all-pairs kernel builds them.
    """

    __slots__ = ("vectors", "_nrm", "_packed")

    def __init__(self, vectors: List[SparseVector]) -> None:
        self.vectors = vectors
        self._nrm: Optional[List[array]] = None
        self._packed = None

    @property
    def nrm(self) -> List[array]:
        """Per row: weights / row norm ('d'), built on first use."""
        if self._nrm is None:
            self._nrm = [_normalized(vector) for vector in self.vectors]
        return self._nrm

    def n_terms(self) -> int:
        """Distinct terms over the compiled rows."""
        return len(set().union(*(v.id_arrays()[0] for v in self.vectors)))

    # -- per-row helpers ----------------------------------------------

    def self_cosine(self, row: int) -> float:
        """cos(row, row): 1.0-ish for non-empty rows, 0.0 for empty."""
        weights = self.nrm[row]
        if not weights:
            return 0.0
        return sum(w * w for w in weights)

    def pairwise(self) -> np.ndarray:
        """All-pairs cosines of the normalized rows (dense, symmetric).

        Entry ``(i, j)`` adds row ``i``'s products with row ``j``'s
        weight for the same term, in row ``i``'s stored term order,
        starting from 0.0 (a term row ``j`` lacks adds an exact 0.0):
        the order a CSR ``A @ A.T`` row-by-row product uses.  The rows
        are scattered into a dense block, transposed (one row per term
        of the collection's union, one column per output column), and
        output row ``i`` is ``(w_i[:, None] * block[cols_i]).sum(0)``.
        That reduction runs down axis 0, one sequential add per term,
        as long as the block has at least two columns (a one-column
        block collapses to NumPy's pairwise summation); so the output
        columns are cut into blocks of at least two, each no larger
        than :data:`PAIRWISE_BLOCK_BYTES`.  The diagonal is
        :meth:`self_cosine`.
        """
        nrm = self.nrm
        n = len(nrm)
        dense = np.zeros((n, n), dtype=np.float64)
        if n > 1:
            lengths = [len(weights) for weights in nrm]
            ids = np.frombuffer(b"".join(
                vector.id_arrays()[0]
                for vector, weights in zip(self.vectors, nrm) if weights
            ), dtype=np.int64)
            weights = np.frombuffer(b"".join(nrm), dtype=np.float64)
            # Block row of each id: 0..terms-1 over the rows' term union.
            width = int(ids.max()) + 1 if ids.size else 0
            column = np.zeros(width, dtype=np.intp)
            column[ids] = 1
            terms = int(column.sum())
            column[column > 0] = np.arange(terms)
            cols = column[ids]
            owner = np.repeat(np.arange(n), lengths)
            starts = np.cumsum([0] + lengths).tolist()
            rows = [
                (row, weights[lo:hi, None], cols[lo:hi])
                for row, (lo, hi) in enumerate(zip(starts, starts[1:]))
                if lo < hi
            ]
            step = max(2, PAIRWISE_BLOCK_BYTES // (8 * max(terms, 1)))
            for first, last in _column_blocks(n, step):
                block = np.zeros((terms, last - first), dtype=np.float64)
                inside = (owner >= first) & (owner < last)
                block[cols[inside], owner[inside] - first] = weights[inside]
                out = dense[:, first:last]
                for row, row_weights, row_cols in rows:
                    products = block.take(row_cols, axis=0)
                    products *= row_weights
                    products.sum(axis=0, out=out[row])
        np.fill_diagonal(dense, [self.self_cosine(i) for i in range(n)])
        return dense

    def centroid_cosines(self, block: "_SpaceBlock") -> np.ndarray:
        """Kernel cosines of every row against every centroid of
        ``block``, as an n x k matrix.

        Entry ``(i, j)`` is the expression :meth:`_SpaceBlock.cosines`
        evaluates for one page: row ``i``'s raw weights dotted with
        centroid ``j``'s, over ``norm_i * norm_j``; a row of zero norm
        scores 0.0.  The rows are packed end to end once per space (ids,
        raw weights, row starts and norms, rows of zero norm left out);
        one gather of the block's term rows by the packed ids, weighted,
        is summed per row with ``np.add.reduceat``.  The gather is cut
        at row boundaries into chunks of at most
        :data:`KERNEL_BLOCK_BYTES`.
        """
        if self._packed is None:
            self._packed = self._pack()
        rows, ids, weights, starts, norms = self._packed
        k = len(block.norms)
        out = np.zeros((len(self.vectors), k), dtype=np.float64)
        if not rows.size:
            return out
        cols = block.column.take(ids, mode="clip")
        dots = np.empty((rows.size, k), dtype=np.float64)
        step = max(1, KERNEL_BLOCK_BYTES // (8 * k))
        first = 0
        while first < rows.size:
            lo = starts[first]
            last = int(np.searchsorted(starts, lo + step, side="right")) - 1
            last = max(last, first + 1)
            hi = starts[last]
            products = block.rows.take(cols[lo:hi], axis=0)
            products *= weights[lo:hi, None]
            dots[first:last] = np.add.reduceat(
                products, starts[first:last] - lo, axis=0
            )
            first = last
        out[rows] = dots / (norms[:, None] * block.norms)
        return out

    def _pack(self):
        """The rows of non-zero norm end to end: their row numbers, ids,
        raw weights, start offsets (one past the last row too) and
        norms."""
        rows = [row for row, v in enumerate(self.vectors) if v.norm() > 0.0]
        vectors = [self.vectors[row] for row in rows]
        ids = np.frombuffer(
            b"".join(v.id_arrays()[0] for v in vectors), dtype=np.int64
        )
        weights = np.frombuffer(
            b"".join(v.id_arrays()[1] for v in vectors), dtype=np.float64
        )
        starts = np.cumsum([0] + [len(v) for v in vectors])
        norms = np.array([v.norm() for v in vectors], dtype=np.float64)
        return np.array(rows, dtype=np.intp), ids, weights, starts, norms


def _normalized(vector: SparseVector) -> array:
    """A vector's weights over its norm, in its stored term order."""
    norm = vector.norm()
    if norm > 0.0:
        inv = 1.0 / norm
        return array("d", (w * inv for w in vector.id_arrays()[1]))
    return array("d")


def _column_blocks(n: int, step: int):
    """``[first, last)`` ranges over ``n >= 2`` columns, ``step >= 2``
    wide, except that a lone last column joins the block before it."""
    bounds = list(range(0, n, step)) + [n]
    if n - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


def _id_arrays(vector: SparseVector) -> Tuple[np.ndarray, np.ndarray]:
    """A vector's ids and weights as numpy views of its own buffers."""
    ids, weights = vector.id_arrays()
    return (
        np.frombuffer(ids, dtype=np.int64),
        np.frombuffer(weights, dtype=np.float64),
    )


class _SpaceBlock:
    """One feature space of k centroids, compiled for the page x k scan.

    ``rows`` is the dense centroid block transposed: one row of k
    weights per term some centroid holds, plus row 0, all zeros.
    ``column`` maps a :data:`~repro.vsm.interning.VOCABULARY` id to its
    row; ids no centroid holds map to row 0, and so does the last
    entry, which every id at or beyond the block's width is clipped to
    (the table may have grown since the block was compiled).  ``norms``
    are the centroids' cached norms, ``inf`` for an empty centroid, so
    its cosine divides to 0.0.  A block never changes once built.
    """

    __slots__ = ("column", "rows", "norms")

    def __init__(self, column, rows, norms) -> None:
        self.column: np.ndarray = column
        self.rows: np.ndarray = rows
        self.norms: np.ndarray = norms

    @classmethod
    def build(cls, vectors: Sequence[SparseVector]) -> "_SpaceBlock":
        parts = [vector.id_arrays() for vector in vectors]
        ids = np.frombuffer(b"".join(part[0] for part in parts), dtype=np.int64)
        width = int(ids.max()) + 1 if ids.size else 0
        column = np.zeros(width + 1, dtype=np.intp)
        column[ids] = 1
        terms = np.flatnonzero(column)
        column[terms] = np.arange(1, terms.size + 1)
        rows = np.zeros((terms.size + 1, len(vectors)), dtype=np.float64)
        owner = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
        rows[column[ids], owner] = np.frombuffer(
            b"".join(part[1] for part in parts), dtype=np.float64
        )
        norms = np.array([v.norm() or np.inf for v in vectors], dtype=np.float64)
        return cls(column, rows, norms)

    def cosines(self, vector: SparseVector) -> np.ndarray:
        """Kernel cosines of ``vector`` against every compiled row."""
        norm = vector.norm()
        if norm == 0.0:
            return np.zeros(len(self.norms))
        ids, weights = _id_arrays(vector)
        rows = self.column.take(ids, mode="clip")
        return (weights @ self.rows.take(rows, axis=0)) / (norm * self.norms)


class SimilarityEngine:
    """Compiled Equation-3 similarity over a fixed collection.

    Parameters
    ----------
    items:
        Anything with ``.pc`` / ``.fc`` sparse vectors (form pages, hub
        centroids, schema adapters).  The engine indexes them once; all
        batched operations refer to them by position.
    similarity:
        The :class:`~repro.core.similarity.FormPageSimilarity` whose
        ``spaces`` are compiled and whose ``combine`` merges them.
    """

    def __init__(self, items: Sequence, similarity) -> None:
        self.items = list(items)
        self.similarity = similarity
        self.stats = EngineStats()

        started = time.perf_counter()
        self._spaces: Dict[str, _Space] = {
            name: _Space([getattr(item, name) for item in self.items])
            for name in similarity.spaces
        }
        self.stats.build_seconds = time.perf_counter() - started
        self.stats.n_pages = len(self.items)
        self.stats.n_terms = sum(
            space.n_terms() for space in self._spaces.values()
        )

    # ----------------------------------------------------------------
    # Introspection.
    # ----------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self.items)

    @property
    def n_terms(self) -> int:
        return self.stats.n_terms

    @property
    def space_names(self) -> Tuple[str, ...]:
        return tuple(self._spaces)

    def space(self, name: str) -> _Space:
        return self._spaces[name]

    # ----------------------------------------------------------------
    # Batched shapes.
    # ----------------------------------------------------------------

    def pairwise(self) -> np.ndarray:
        """The full symmetric similarity matrix over the compiled items.

        One all-pairs kernel per compiled space, combined elementwise by
        ``similarity.combine``.  The diagonal holds each item's
        Equation-3 similarity with itself, where an empty space
        contributes 0.0.
        """
        n = len(self.items)
        self.stats.comparisons += n * (n - 1) // 2
        matrices = {
            name: space.pairwise() for name, space in self._spaces.items()
        }
        return self.similarity.combine(
            matrices.get("pc", 0.0), matrices.get("fc", 0.0)
        )

    # ----------------------------------------------------------------
    # Batched k-means (Algorithm 1's loop).
    # ----------------------------------------------------------------

    def kmeans(
        self,
        initial_centroids: Sequence,
        stop_fraction: float = 0.1,
        max_iterations: int = 50,
    ):
        """Run k-means over the compiled items from the given seeds.

        The generic :func:`repro.clustering.kmeans.kmeans`, driven by the
        scalar ``similarity`` and
        :func:`~repro.core.form_page.centroid_of`, by construction: every
        pass decides on the scalar Equation-3 floats with the argmax rule
        of :meth:`~repro.core.similarity.FormPageSimilarity.rescored_argmax`
        (stability toward the previous cluster, then the lowest index);
        a non-empty cluster's centroid becomes the Equation-4 mean of its
        members and an emptied one keeps its previous centroid; the loop
        stops under the same sub-10%-moved rule.  Returns the same
        :class:`~repro.clustering.kmeans.KMeansResult`.
        """
        from repro.clustering.kmeans import KMeansResult
        from repro.clustering.types import Clustering

        if not initial_centroids:
            raise ValueError("kmeans requires at least one initial centroid")
        k = len(initial_centroids)
        n = len(self.items)
        centroids = list(initial_centroids)
        if n == 0:
            return KMeansResult(
                Clustering([[] for _ in range(k)]),
                centroids,
                iterations=0,
                converged=True,
            )

        assignment = self._assign(centroids, None)
        converged = False
        iterations = 0

        for iterations in range(1, max_iterations + 1):
            members: List[list] = [[] for _ in range(k)]
            for item, cluster in zip(self.items, assignment):
                members[cluster].append(item)
            for cluster, group in enumerate(members):
                if group:
                    centroids[cluster] = centroid_of(group)

            new_assignment = self._assign(centroids, assignment)
            moved = sum(
                1 for old, new in zip(assignment, new_assignment) if old != new
            )
            assignment = new_assignment
            if moved <= stop_fraction * n and (stop_fraction > 0 or moved == 0):
                converged = True
                break

        clusters: List[List[int]] = [[] for _ in range(k)]
        for point, cluster in enumerate(assignment):
            clusters[cluster].append(point)
        return KMeansResult(
            Clustering(clusters), centroids, iterations, converged
        )

    def _assign(
        self, centroids: Sequence, previous: Optional[List[int]]
    ) -> List[int]:
        """Each item's cluster, given the previous pass's (None on the
        first pass).

        The centroids are compiled into one block per space, the n x k
        kernel cosines are combined by ``similarity.combine``, and each
        item's row goes through the similarity's rescored argmax, which
        rescores only the near-maximal centroids with the scalar
        Equation 3, and none when one centroid is near-maximal (the
        pass reads only the index).  Counts n x k comparisons, as
        ``best`` counts k per page; the rescore adds none.
        """
        similarity = self.similarity
        self.stats.comparisons += len(self.items) * len(centroids)
        cosines = {
            name: space.centroid_cosines(
                _SpaceBlock.build([getattr(c, name) for c in centroids])
            )
            for name, space in self._spaces.items()
        }
        scores = similarity.combine(
            cosines.get("pc", 0.0), cosines.get("fc", 0.0)
        )
        if previous is None:
            previous = [-1] * len(self.items)
        names = self.space_names
        pick = similarity.rescored_index
        return [
            pick(
                item,
                centroids,
                row,
                max(len(getattr(item, name)) for name in names),
                prev,
            )
            for item, row, prev in zip(self.items, scores, previous)
        ]


__all__ = [
    "EngineStats",
    "SimilarityEngine",
]
