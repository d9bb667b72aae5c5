"""Struct-of-arrays sparse term vectors over an interned vocabulary.

Form-page vocabularies run to tens of thousands of terms while individual
pages contain a few hundred, so sparse storage beats dense arrays both in
memory and in dot-product time (the dot product iterates the smaller
vector only).

Internally a vector is two parallel C-level arrays — interned term ids
(``array('q')``, via the shared :data:`~repro.vsm.interning.VOCABULARY`
table) and packed float weights (``array('d')``) — in insertion order,
plus a lazily built ``id -> weight`` dict for the random-access paths.
The public API is unchanged from the dict-backed layout, and every
float-summation order (``dot``, ``norm``, ``accumulate``) is preserved
exactly, so the re-layout is bit-identical to the old representation.
"""

import heapq
import math
from array import array
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.vsm.interning import VOCABULARY

_VOCAB = VOCABULARY


class SparseVector:
    """An immutable-by-convention sparse vector over string terms.

    Supports the operations the clustering algorithms need: dot product,
    Euclidean norm, cosine similarity, scalar scaling, and accumulation
    (for centroid computation, Equation 4).
    """

    __slots__ = ("_ids", "_vals", "_lookup", "_norm")

    def __init__(self, weights: Mapping[str, float] = ()) -> None:
        # Zero entries are dropped so that sparsity invariants hold
        # (len() == number of non-zero coordinates).
        ids = array("q")
        vals = array("d")
        intern = _VOCAB.intern
        if type(weights) is not dict:
            weights = dict(weights)
        for term, weight in weights.items():
            if weight != 0.0:
                ids.append(intern(term))
                vals.append(weight)
        self._ids = ids
        self._vals = vals
        self._lookup: Optional[Dict[int, float]] = None
        self._norm: float = -1.0  # computed lazily

    @classmethod
    def from_ids(cls, items: Iterable[Tuple[int, float]]) -> "SparseVector":
        """Build from already-interned ``(id, weight)`` pairs."""
        vector = cls.__new__(cls)
        ids = array("q")
        vals = array("d")
        for tid, weight in items:
            if weight != 0.0:
                ids.append(tid)
                vals.append(weight)
        vector._ids = ids
        vector._vals = vals
        vector._lookup = None
        vector._norm = -1.0
        return vector

    @classmethod
    def from_arrays(cls, ids: array, weights: array) -> "SparseVector":
        """Adopt already-interned, already-validated parallel arrays
        (``array('q')`` ids, ``array('d')`` weights) as they are: no
        copy and no filtering, so the caller vouches that the ids are
        distinct and every weight is non-zero."""
        vector = cls.__new__(cls)
        vector._ids = ids
        vector._vals = weights
        vector._lookup = None
        vector._norm = -1.0
        return vector

    def id_arrays(self) -> Tuple[array, array]:
        """The packed ``(ids, weights)`` arrays over :data:`VOCABULARY`
        ids — shared, not copied, so callers only read them."""
        return self._ids, self._vals

    def _by_id(self) -> Dict[int, float]:
        """The ``id -> weight`` dict, built on first random access."""
        lookup = self._lookup
        if lookup is None:
            lookup = dict(zip(self._ids, self._vals))
            self._lookup = lookup
        return lookup

    # ----------------------------------------------------------------
    # Container protocol.
    # ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __contains__(self, term: str) -> bool:
        tid = _VOCAB.id_of(term)
        return tid is not None and tid in self._by_id()

    def __getitem__(self, term: str) -> float:
        tid = _VOCAB.id_of(term)
        if tid is None:
            return 0.0
        return self._by_id().get(tid, 0.0)

    def __iter__(self) -> Iterator[str]:
        return map(_VOCAB.term, self._ids)

    def items(self) -> List[Tuple[str, float]]:
        term_of = _VOCAB.term
        return [(term_of(tid), v) for tid, v in zip(self._ids, self._vals)]

    def terms(self) -> List[str]:
        return [_VOCAB.term(tid) for tid in self._ids]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._by_id() == other._by_id()

    def __repr__(self) -> str:
        preview = sorted(self.items(), key=lambda kv: -kv[1])[:3]
        return f"SparseVector(nnz={len(self)}, top={preview})"

    def __reduce__(self):
        # Interned ids are process-local; pickle through term strings so
        # a vector crossing a process boundary re-interns on arrival.
        return (SparseVector, (dict(self.items()),))

    # ----------------------------------------------------------------
    # Algebra.
    # ----------------------------------------------------------------

    def norm(self) -> float:
        """Euclidean length; cached after first computation."""
        if self._norm < 0.0:
            self._norm = math.sqrt(sum(w * w for w in self._vals))
        return self._norm

    def dot(self, other: "SparseVector") -> float:
        """Dot product; iterates the sparser operand."""
        if len(self._ids) > len(other._ids):
            return _dot_over(other, self)
        return _dot_over(self, other)

    def scale(self, factor: float) -> "SparseVector":
        """Return a new vector scaled by ``factor``."""
        return SparseVector.from_ids(
            (tid, w * factor) for tid, w in zip(self._ids, self._vals)
        )

    def add(self, other: "SparseVector") -> "SparseVector":
        """Return the element-wise sum as a new vector.

        The merged dict is built in one C-level pass; only genuinely
        shared terms pay a Python-level float add.  For the common
        PC+FC merge the two vocabularies barely overlap, so almost the
        whole sum happens inside the dict constructor.
        """
        a, b = self._by_id(), other._by_id()
        summed = {**a, **b}
        for tid in a.keys() & b.keys():
            summed[tid] = a[tid] + b[tid]
        return SparseVector.from_ids(summed.items())

    def normalized(self) -> "SparseVector":
        """Return a unit-length copy (or an empty vector if zero)."""
        length = self.norm()
        if length == 0.0:
            return SparseVector()
        return self.scale(1.0 / length)

    def top_terms(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` heaviest terms, descending by weight (ties by term).

        Only the terms weighing at least the ``n``-th largest weight are
        resolved to strings and sorted, so a wide centroid costs one heap
        pass over its weights rather than a sort of every term.  Ties
        that straddle the cut are all kept, so the result is the full
        sort's prefix exactly.
        """
        vals = self._vals
        if not 0 < n < len(vals):
            return sorted(self.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        cut = heapq.nlargest(n, vals)[-1]
        term_of = _VOCAB.term
        heavy = [
            (term_of(tid), w) for tid, w in zip(self._ids, vals) if w >= cut
        ]
        heavy.sort(key=lambda kv: (-kv[1], kv[0]))
        return heavy[:n]


def _dot_over(a: SparseVector, b: SparseVector) -> float:
    """``a . b``, summed in ``a``'s term order."""
    lookup = b._by_id()
    return sum(
        w * lookup[tid]
        for tid, w in zip(a._ids, a._vals)
        if tid in lookup
    )


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity (Equation 2): ``a . b / (|a| |b|)``.

    Two empty vectors — or any vector against an empty one — have
    similarity 0, the conventional choice for missing feature spaces
    (e.g. a form page whose form carries no visible text at all).
    """
    denominator = a.norm() * b.norm()
    if denominator == 0.0:
        return 0.0
    return a.dot(b) / denominator


#: Unit roundoff of IEEE-754 double precision.
_UNIT_ROUNDOFF = 2.0 ** -53


def rescore_window(top: float, terms: int) -> float:
    """How far below ``top`` an approximate score may fall while its row
    can still win on the scalar score: ``4·γ(terms + 6)·max(top, 1)``.

    This is the one exactness rule of every ranked read: approximate
    scores (a compiled centroid kernel in
    :meth:`~repro.core.similarity.FormPageSimilarity.rescored_argmax`,
    posting-list partial sums and the cluster block's scores in
    :func:`~repro.index.retrieval.top_k_exact`) only pick the rows
    within this window of ``top``, and the scalar cosine decides among
    them.  Approximate scores are never returned.

    ``γ(m) = m·u / (1 − m·u)``, with ``u`` the unit roundoff, bounds the
    relative error of ``m`` roundings.  Every weighting scheme emits
    non-negative weights, so a row's approximate score ``a`` and its
    scalar score ``s`` both lie within ``γ(terms + 5)·v`` of the exact
    value ``v`` of the same expression over the same cached norms, where
    ``terms`` is the number of query (or page) terms: ``terms``
    roundings in a dot product summed in any order, and at most five
    more per score.  A cosine adds two (the norms' product and the
    division) and Equation 3's combination three more; a posting-list
    partial adds the two reciprocal norms and the three products that
    scale each summand, and the cluster block's score one division per
    centroid weight, the query's reciprocal norm and two products.  With ``γ = γ(terms + 5)`` and
    ``ρ = (1 − γ)/(1 + γ)``, ``s ≥ ρ·a`` and ``a ≥ ρ·s``.  Let ``top``
    be the k-th largest approximate score (k = 1 for an argmax).  The k
    rows scoring at least ``top`` have scalar scores of at least
    ``ρ·top``, so any row whose scalar score reaches the k-th largest
    scalar score has ``a ≥ ρ²·top``:
    ``top − a ≤ 4γ/(1 + γ)²·top ≤ 4γ·top``.  Rounding ``top − a`` and
    the window itself is covered by ``γ(terms + 6)``, and
    ``max(top, 1)`` makes the window absolute for scores up to 1.
    """
    mu = (terms + 6) * _UNIT_ROUNDOFF
    return 4.0 * (mu / (1.0 - mu)) * max(top, 1.0)


class KeywordQuery:
    """A keyword query as term counts over :data:`VOCABULARY` ids,
    interning nothing.

    Serving analyzes arbitrary user text, so interning its words would
    grow the process-wide table with every novel query.  A word the
    table has never seen cannot match any stored vector, so it is left
    out of :attr:`vector`; it still counts toward :attr:`norm` and
    :attr:`size`.  :meth:`cosine` therefore returns the exact float
    :func:`cosine_similarity` gives for the whole query interned,
    including which operand :meth:`SparseVector.dot` iterates.
    """

    __slots__ = ("vector", "norm", "size")

    def __init__(self, terms: Iterable[str]) -> None:
        counts: Dict[str, float] = {}
        for term in terms:
            counts[term] = counts.get(term, 0.0) + 1.0
        id_of = _VOCAB.id_of
        known = ((id_of(term), count) for term, count in counts.items())
        self.vector = SparseVector.from_ids(
            (tid, count) for tid, count in known if tid is not None
        )
        self.norm = math.sqrt(sum(w * w for w in counts.values()))
        self.size = len(counts)

    def __bool__(self) -> bool:
        return self.size > 0

    def cosine(self, row: SparseVector) -> float:
        """Cosine similarity (Equation 2) of the query and ``row``."""
        denominator = self.norm * row.norm()
        if denominator == 0.0:
            return 0.0
        if self.size > len(row._ids):
            return _dot_over(row, self.vector) / denominator
        return _dot_over(self.vector, row) / denominator

    def matched_terms(self, row: SparseVector) -> List[str]:
        """The query's terms present in ``row``, sorted."""
        lookup = row._by_id()
        return sorted(
            _VOCAB.term(tid) for tid in self.vector._ids if tid in lookup
        )


def accumulate(vectors: Iterable[SparseVector]) -> SparseVector:
    """Sum many vectors efficiently (single mutable accumulator).

    The first vector seeds the accumulator as a plain dict copy; later
    vectors pay a float add only for terms already present, so the
    common sparse-disjoint case stays in C-level dict operations.
    """
    total: Dict[int, float] = {}
    for vector in vectors:
        if not total:
            total = dict(zip(vector._ids, vector._vals))
            continue
        for tid, weight in zip(vector._ids, vector._vals):
            if tid in total:
                total[tid] = total[tid] + weight
            else:
                total[tid] = weight
    return SparseVector.from_ids(total.items())


def _concat_arrays(vectors: Sequence[SparseVector]):
    """The vectors' ids and weights end to end, as NumPy arrays, and
    each vector's length."""
    import numpy as np

    ids = np.frombuffer(b"".join(v._ids for v in vectors), dtype=np.int64)
    vals = np.frombuffer(b"".join(v._vals for v in vectors), dtype=np.float64)
    return ids, vals, np.array([len(v._ids) for v in vectors], dtype=np.int64)


def add_pairs(
    pairs: Sequence[Tuple[SparseVector, SparseVector]]
) -> List[SparseVector]:
    """``[a.add(b) for a, b in pairs]`` in one pass over the pairs'
    packed arrays: the same terms in the same order (``a``'s, then the
    terms only ``b`` holds), the same sums (one IEEE add per shared
    term) and the same zero-dropping.  (NumPy is imported here, not at
    module level, so analysis workers that only build vectors do not
    load it.)"""
    import numpy as np

    n = len(pairs)
    if not n:
        return []
    a_ids, a_vals, a_len = _concat_arrays([a for a, _ in pairs])
    b_ids, b_vals, b_len = _concat_arrays([b for _, b in pairs])
    a_row = np.repeat(np.arange(n, dtype=np.int64), a_len)
    b_row = np.repeat(np.arange(n, dtype=np.int64), b_len)
    width = int(max(a_ids.max(initial=-1), b_ids.max(initial=-1))) + 1
    a_key = a_row * width + a_ids
    b_key = b_row * width + b_ids
    sums = a_vals.copy()
    b_only = np.ones(len(b_ids), dtype=bool)
    if len(b_key) and len(a_key):
        b_order = np.argsort(b_key)
        b_sorted = b_key[b_order]
        at = np.minimum(np.searchsorted(b_sorted, a_key), len(b_sorted) - 1)
        shared = b_sorted[at] == a_key
        partner = b_order[at[shared]]
        sums[shared] += b_vals[partner]
        b_only[partner] = False
    rows = np.concatenate([a_row, b_row[b_only]])
    order = np.argsort(rows, kind="stable")
    ids = np.concatenate([a_ids, b_ids[b_only]])[order]
    vals = np.concatenate([sums, b_vals[b_only]])[order]
    rows = rows[order]
    nonzero = vals != 0.0
    if not nonzero.all():
        ids, vals, rows = ids[nonzero], vals[nonzero], rows[nonzero]
    bounds = [0] + np.cumsum(np.bincount(rows, minlength=n)).tolist()
    all_ids = array("q", ids.tobytes())
    all_vals = array("d", vals.tobytes())
    return [
        SparseVector.from_arrays(all_ids[start:end], all_vals[start:end])
        for start, end in zip(bounds, bounds[1:])
    ]


def mean_vector(vectors: Iterable[SparseVector]) -> SparseVector:
    """The arithmetic mean of ``vectors`` (Equation 4 per feature space).

    Returns an empty vector for an empty input.
    """
    materialized = list(vectors)
    if not materialized:
        return SparseVector()
    return accumulate(materialized).scale(1.0 / len(materialized))
