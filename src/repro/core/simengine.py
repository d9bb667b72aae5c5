"""Batched sparse similarity engine — the compiled side of Equation 3.

Every hot path of the reproduction (Algorithm 1's assignment loop,
Algorithm 3's hub-distance matrix, incremental cohesion, the explorer's
query scoring, the schema baseline) is some batch of Equation-3 cosines.
Computing them pair-by-pair caps corpus size; this module compiles a
collection once into per-row id and weight arrays and serves every
batched shape from that one representation:

* :meth:`SimilarityEngine.pairwise` — the full n x n similarity matrix
  as one all-pairs kernel per feature space;
* :meth:`SimilarityEngine.page_centroid_matrix` — pages x centroids,
  the k-means assignment shape;
* :meth:`SimilarityEngine.to_centroids` — Equation-4 means straight
  from the compiled rows;
* :meth:`SimilarityEngine.kmeans` — Algorithm 1's loop, batched, with
  tie-breaking and stopping semantics identical to
  :func:`repro.clustering.kmeans.kmeans`.

Rows are the vectors' own :mod:`array` buffers over the process-wide
:data:`~repro.vsm.interning.VOCABULARY` ids — the engine keeps no term
table of its own and resolves no strings.  The all-pairs matrix is one
NumPy kernel over the normalized rows: a dense block, transposed, over
the collection's own term union, summed in each row's stored term
order (the order of a CSR matmul, so its floats are the same), and
the page x centroid shapes accumulate over a
:class:`~repro.index.postings.SpaceIndex`, the posting lists the query
paths use.  The engine holds no Equation-3 configuration of its own:
it compiles the spaces its
:class:`~repro.core.similarity.FormPageSimilarity` names
(``similarity.spaces``) and combines per-space cosines with that
object's literal expression (``similarity.combine``), never
algebraically rearranged, so every shape agrees with the scalar path to
well below 1e-12.

The engine never changes Eq. 1-6 semantics — it only changes how the
same arithmetic is batched.
"""

import time
from array import array
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.form_page import VectorPair
from repro.vsm.vector import SparseVector

#: Upper bound on the dense term x column block
#: :meth:`_Space.pairwise` holds at once.
PAIRWISE_BLOCK_BYTES = 8 << 20


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
    normalized weights (``nrm``, aligned with each row's ids) are new.
    """

    __slots__ = ("vectors", "nrm", "_index")

    def __init__(self) -> None:
        self.vectors: List[SparseVector] = []
        self.nrm: List[array] = []     # per row: weights / row norm ('d')
        self._index = None

    def add_row(self, vector: SparseVector) -> None:
        norm = vector.norm()
        self.vectors.append(vector)
        if norm > 0.0:
            inv = 1.0 / norm
            raw = vector.id_arrays()[1]
            self.nrm.append(array("d", (w * inv for w in raw)))
        else:
            self.nrm.append(array("d"))

    def n_terms(self) -> int:
        """Distinct terms over the compiled rows."""
        return len(set().union(*(v.id_arrays()[0] for v in self.vectors)))

    # -- derived structures (built lazily, cached) --------------------

    def index(self):
        """Posting lists over the normalized rows, rows in ascending
        order (pages are compiled in sequence)."""
        if self._index is None:
            # repro.index imports repro.datasets, which imports repro.core.
            from repro.index.postings import SpaceIndex

            index = SpaceIndex()
            for row, vector in enumerate(self.vectors):
                index.add_row(row, vector)
            self._index = index
        return self._index

    # -- per-row helpers ----------------------------------------------

    def self_cosine(self, row: int) -> float:
        """cos(row, row): 1.0-ish for non-empty rows, 0.0 for empty."""
        weights = self.nrm[row]
        if not weights:
            return 0.0
        return sum(w * w for w in weights)

    def score_column(self, query: Dict[int, float], n_rows: int) -> List[float]:
        """Cosine of ``query`` (a normalized id -> weight map) against
        every compiled row (accumulator)."""
        scores = [0.0] * n_rows
        postings = self.index().postings
        for term_id, query_weight in query.items():
            for row, weight in postings(term_id):
                scores[row] += query_weight * weight
        return scores

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
        n = len(self.nrm)
        dense = np.zeros((n, n), dtype=np.float64)
        if n > 1:
            lengths = [len(weights) for weights in self.nrm]
            ids = np.frombuffer(b"".join(
                vector.id_arrays()[0]
                for vector, weights in zip(self.vectors, self.nrm) if weights
            ), dtype=np.int64)
            weights = np.frombuffer(b"".join(self.nrm), dtype=np.float64)
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


def _column_blocks(n: int, step: int):
    """``[first, last)`` ranges over ``n >= 2`` columns, ``step >= 2``
    wide, except that a lone last column joins the block before it."""
    bounds = list(range(0, n, step)) + [n]
    if n - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


class CompiledCentroids:
    """Equation-4 centroids over VOCABULARY ids, ready for batched scoring.

    Built either from an assignment over the engine's own rows
    (:meth:`SimilarityEngine.to_centroids`) or by compiling external
    :class:`~repro.core.form_page.VectorPair` objects.  ``raw[space][i]``
    is the centroid's raw id -> weight map, ``nrm[space][i]`` the
    normalized one used for cosine scoring (empty for an empty centroid).
    """

    def __init__(self, engine: "SimilarityEngine", k: int) -> None:
        self.engine = engine
        self.k = k
        self.raw: Dict[str, List[Dict[int, float]]] = {}
        self.nrm: Dict[str, List[Dict[int, float]]] = {}
        for name in engine.space_names:
            self.raw[name] = [{} for _ in range(k)]
            self.nrm[name] = [{} for _ in range(k)]

    def __len__(self) -> int:
        return self.k

    def set_raw(self, space: str, index: int, raw: Dict[int, float]) -> None:
        norm = _sqrt_sum_sq(raw)
        self.raw[space][index] = raw
        if norm > 0.0:
            inv = 1.0 / norm
            self.nrm[space][index] = {i: w * inv for i, w in raw.items()}
        else:
            self.nrm[space][index] = {}

    def vector_pair(self, index: int) -> VectorPair:
        """Materialize centroid ``index`` back into string-term vectors."""
        pc = self._materialize("pc", index)
        fc = self._materialize("fc", index)
        return VectorPair(pc=pc, fc=fc)

    def _materialize(self, space: str, index: int) -> SparseVector:
        compiled = self.raw.get(space)
        if compiled is None:
            return SparseVector()
        return SparseVector.from_ids(compiled[index].items())


def _normalized(vector: SparseVector) -> Dict[int, float]:
    """``vector`` as a normalized id -> weight map (empty if zero)."""
    norm = vector.norm()
    if norm == 0.0:
        return {}
    inv = 1.0 / norm
    ids, weights = vector.id_arrays()
    return {term_id: weight * inv for term_id, weight in zip(ids, weights)}


def _sqrt_sum_sq(weights: Dict[int, float]) -> float:
    total = 0.0
    for weight in weights.values():
        total += weight * weight
    return total ** 0.5


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
            name: _Space() for name in similarity.spaces
        }
        for item in self.items:
            for name, space in self._spaces.items():
                space.add_row(getattr(item, name))
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

    def to_centroids(
        self, assignments: Sequence[int], k: Optional[int] = None
    ) -> CompiledCentroids:
        """Equation-4 centroids per cluster, straight from compiled rows.

        ``assignments[i]`` is the cluster of item ``i``; clusters with no
        members come back empty (callers wanting k-means' keep-previous
        semantics handle that, as :meth:`kmeans` does).
        """
        if k is None:
            k = (max(assignments) + 1) if len(assignments) else 0
        centroids = CompiledCentroids(self, k)
        counts = [0] * k
        for cluster in assignments:
            counts[cluster] += 1
        for name, space in self._spaces.items():
            sums: List[Dict[int, float]] = [{} for _ in range(k)]
            for row, cluster in enumerate(assignments):
                target = sums[cluster]
                ids, raw = space.vectors[row].id_arrays()
                for term_id, weight in zip(ids, raw):
                    target[term_id] = target.get(term_id, 0.0) + weight
            for cluster in range(k):
                if counts[cluster] == 0:
                    continue
                inv = 1.0 / counts[cluster]
                centroids.set_raw(
                    name,
                    cluster,
                    {i: w * inv for i, w in sums[cluster].items()},
                )
        return centroids

    def compile_centroids(
        self, pairs: Sequence
    ) -> CompiledCentroids:
        """Compile external (PC, FC) pairs — e.g. hub-cluster centroids —
        for batched scoring.  Their vectors already carry
        :data:`~repro.vsm.interning.VOCABULARY` ids; a term no compiled
        row holds simply has no posting list to walk."""
        centroids = CompiledCentroids(self, len(pairs))
        for name in self._spaces:
            for index, pair in enumerate(pairs):
                vector: SparseVector = getattr(pair, name)
                centroids.nrm[name][index] = _normalized(vector)
                centroids.raw[name][index] = dict(zip(*vector.id_arrays()))
        return centroids

    def page_centroid_matrix(self, centroids) -> List[List[float]]:
        """Similarity of every compiled item against every centroid.

        ``centroids`` is a :class:`CompiledCentroids` or a sequence of
        (PC, FC) pairs, which is compiled on the fly.  Returns rows =
        items, columns = centroids (a list of row lists; the fast path
        also returns nested lists so callers need no NumPy).
        """
        if not isinstance(centroids, CompiledCentroids):
            centroids = self.compile_centroids(centroids)
        n = len(self.items)
        k = len(centroids)
        self.stats.comparisons += n * k
        columns: Dict[str, List[List[float]]] = {}
        for name, space in self._spaces.items():
            space_columns = []
            for index in range(k):
                space_columns.append(
                    space.score_column(centroids.nrm[name][index], n)
                )
            columns[name] = space_columns
        pc_columns = columns.get("pc")
        fc_columns = columns.get("fc")
        combine = self.similarity.combine
        matrix: List[List[float]] = []
        for row in range(n):
            matrix.append(
                [
                    combine(
                        pc_columns[index][row] if pc_columns else 0.0,
                        fc_columns[index][row] if fc_columns else 0.0,
                    )
                    for index in range(k)
                ]
            )
        return matrix

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

        Semantically identical to :func:`repro.clustering.kmeans.kmeans`
        driven by the scalar ``similarity``:
        same assignment tie-breaking (stability toward the previous
        cluster, then the lowest index), same keep-previous-centroid
        behaviour for emptied clusters, same sub-10%-moved stopping
        rule.  Returns the same :class:`~repro.clustering.kmeans.KMeansResult`.
        """
        from repro.clustering.kmeans import KMeansResult
        from repro.clustering.types import Clustering

        if not initial_centroids:
            raise ValueError("kmeans requires at least one initial centroid")
        k = len(initial_centroids)
        n = len(self.items)
        if n == 0:
            return KMeansResult(
                Clustering([[] for _ in range(k)]),
                list(initial_centroids),
                iterations=0,
                converged=True,
            )

        current = self.compile_centroids(initial_centroids)
        # Per-cluster materialized centroid: starts at the seeds, updated
        # whenever the cluster is non-empty (mirrors the generic engine).
        final_pairs: List = list(initial_centroids)
        assignment = self._assign(current, previous=None)
        converged = False
        iterations = 0

        for iterations in range(1, max_iterations + 1):
            updated = self.to_centroids(assignment, k)
            counts = [0] * k
            for cluster in assignment:
                counts[cluster] += 1
            for cluster in range(k):
                if counts[cluster]:
                    for name in self.space_names:
                        current.raw[name][cluster] = updated.raw[name][cluster]
                        current.nrm[name][cluster] = updated.nrm[name][cluster]
                    final_pairs[cluster] = None  # materialize lazily below

            new_assignment = self._assign(current, previous=assignment)
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
        for cluster in range(k):
            if final_pairs[cluster] is None:
                final_pairs[cluster] = current.vector_pair(cluster)
        return KMeansResult(
            Clustering(clusters), final_pairs, iterations, converged
        )

    def _assign(
        self, centroids: CompiledCentroids, previous: Optional[List[int]]
    ) -> List[int]:
        matrix = self.page_centroid_matrix(centroids)
        k = len(centroids)
        assignment: List[int] = []
        for index, row in enumerate(matrix):
            best_cluster = 0
            best_similarity = float("-inf")
            prev_cluster = previous[index] if previous is not None else -1
            for cluster in range(k):
                score = row[cluster]
                if score > best_similarity:
                    best_similarity = score
                    best_cluster = cluster
                elif score == best_similarity and cluster == prev_cluster:
                    best_cluster = cluster
            assignment.append(best_cluster)
        return assignment


__all__ = [
    "EngineStats",
    "CompiledCentroids",
    "SimilarityEngine",
]
