"""Form-page similarity — Equation 3 — the one object every caller shares.

``sim(FP1, FP2) = (C1 * cos(PC1, PC2) + C2 * cos(FC1, FC2)) / (C1 + C2)``

:class:`FormPageSimilarity` works over anything exposing ``.pc`` and
``.fc`` sparse vectors (both :class:`~repro.core.form_page.FormPage`
points and :class:`~repro.core.form_page.VectorPair` centroids), so the
same instance drives k-means assignment, HAC matrices, hub-cluster
distances and incremental classification.

The *content mode* restricts which spaces contribute — the FC / PC /
FC+PC configurations of Figure 2.  The instance owns that decision:
the validated C1 / C2 (:func:`~repro.core.config.check_weights`, the
rule :class:`~repro.core.config.CAFCConfig` applies), which spaces
contribute (:attr:`FormPageSimilarity.spaces`) and the literal
combining expression (:meth:`FormPageSimilarity.combine`).  The
compiled :class:`~repro.core.simengine.SimilarityEngine` reads both
instead of keeping its own copy, and batched shapes
(:meth:`FormPageSimilarity.pairwise`) run on it; single pairs run the
scalar cosines.  Section 5's argmax (:meth:`FormPageSimilarity.best`)
scans a compiled centroid block and rescores the near-maximal
centroids with the scalar cosines, so it returns the scalar float;
Algorithm 1's assignment (:meth:`SimilarityEngine.kmeans`) scores every
page against such a block at once and decides each page with the same
rule (:meth:`FormPageSimilarity.rescored_argmax`).  All of them count
into the one :class:`EngineStats`.
"""

from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import CAFCConfig, ContentMode, check_weights
from repro.core.simengine import EngineStats, SimilarityEngine, _SpaceBlock
from repro.vsm.vector import SparseVector, cosine_similarity, rescore_window


class HasVectorPair(Protocol):
    """Anything carrying the two feature-space vectors."""

    pc: SparseVector
    fc: SparseVector


class CentroidBlock:
    """k centroids compiled for :meth:`FormPageSimilarity.best`: one
    dense block per scored space (``spaces``, aligned with the
    similarity's ``spaces``).

    The block is current while the centroids are these very objects:
    ``centroids`` holds them (strong references, so no identity is ever
    reused), and :meth:`of` compiles a new block once any centroid
    object changed.  Centroids are immutable by convention, like the
    sparse vectors they hold: a write replaces a centroid object.
    """

    __slots__ = ("centroids", "spaces")

    def __init__(
        self,
        centroids: Tuple[HasVectorPair, ...],
        spaces: Tuple[_SpaceBlock, ...],
    ) -> None:
        self.centroids = centroids
        self.spaces = spaces

    @classmethod
    def of(
        cls,
        block: Optional["CentroidBlock"],
        centroids: Sequence[HasVectorPair],
        names: Sequence[str],
    ) -> "CentroidBlock":
        """``block`` if it compiled exactly ``centroids``, else a block
        compiled from them."""
        if (
            block is not None
            and len(block.centroids) == len(centroids)
            and all(old is new for old, new in zip(block.centroids, centroids))
        ):
            return block
        return cls(tuple(centroids), tuple(
            _SpaceBlock.build([getattr(c, name) for c in centroids])
            for name in names
        ))

    @property
    def nbytes(self) -> int:
        """Bytes held by the compiled arrays."""
        return sum(
            space.column.nbytes + space.rows.nbytes + space.norms.nbytes
            for space in self.spaces
        )


def _candidates(scores: np.ndarray, terms: int) -> List[int]:
    """The centroids within :func:`~repro.vsm.vector.rescore_window` of
    the kernel maximum of ``scores``; none when that maximum is 0.0."""
    top = float(scores.max())
    if top == 0.0:
        return []
    return np.flatnonzero(top - scores <= rescore_window(top, terms)).tolist()


class FormPageSimilarity:
    """Equation 3 with configurable feature spaces and weights.

    Parameters
    ----------
    content_mode:
        Which spaces to use.  In single-space modes the other space's
        weight is ignored (the paper's FC and PC configurations).
    page_weight / form_weight:
        C1 and C2: non-negative, at least one positive.  The paper uses
        C1 = C2 = 1.

    ``stats.comparisons`` counts every pair scored through the instance,
    scalar or batched.
    """

    def __init__(
        self,
        content_mode: ContentMode = ContentMode.FC_PC,
        page_weight: float = 1.0,
        form_weight: float = 1.0,
    ) -> None:
        check_weights(page_weight, form_weight)
        self.content_mode = content_mode
        self.page_weight = page_weight
        self.form_weight = form_weight
        # A space with zero Equation-3 weight contributes nothing and is
        # neither scored nor compiled.
        if content_mode is ContentMode.FC_PC:
            self.spaces: Tuple[str, ...] = tuple(
                name
                for name, weight in (("pc", page_weight), ("fc", form_weight))
                if weight > 0
            )
        else:
            self.spaces = (content_mode.value,)
        self._pc = "pc" in self.spaces
        self._fc = "fc" in self.spaces
        self.stats = EngineStats()
        # The compiled centroids behind best(): replaced whole by one
        # assignment, never mutated, so concurrent readers are safe.
        self._block: Optional[CentroidBlock] = None

    @classmethod
    def from_config(cls, config: CAFCConfig) -> "FormPageSimilarity":
        """The Equation-3 similarity implied by a config."""
        return cls(config.content_mode, config.page_weight, config.form_weight)

    def combine(self, pc, fc):
        """The literal Equation-3 expression over per-space cosines
        (floats or equal-shape arrays; an uncompiled space passes 0.0)."""
        mode = self.content_mode
        if mode is ContentMode.PC:
            return pc
        if mode is ContentMode.FC:
            return fc
        return (self.page_weight * pc + self.form_weight * fc) / (
            self.page_weight + self.form_weight
        )

    def __call__(self, a: HasVectorPair, b: HasVectorPair) -> float:
        """Similarity in [0, 1] (cosines of non-negative vectors)."""
        self.stats.comparisons += 1
        return self._score(a, b)

    def _score(self, a: HasVectorPair, b: HasVectorPair) -> float:
        """The scalar Equation 3, uncounted."""
        return self.combine(
            cosine_similarity(a.pc, b.pc) if self._pc else 0.0,
            cosine_similarity(a.fc, b.fc) if self._fc else 0.0,
        )

    def pairwise(self, items: Sequence[HasVectorPair]) -> np.ndarray:
        """Full symmetric similarity matrix over ``items``, from one
        compiled :class:`~repro.core.simengine.SimilarityEngine`."""
        engine = SimilarityEngine(items, self)
        matrix = engine.pairwise()
        self.stats.merge(engine.stats)
        return matrix

    def best(
        self, page: HasVectorPair, centroids: Sequence[HasVectorPair]
    ) -> Tuple[int, float]:
        """Section 5's classification: the first centroid with the
        highest similarity to ``page``, and that similarity — exactly
        the index and float a scalar scan (``self(page, c)`` for each
        centroid, first maximum) returns.

        The centroids are compiled once into a dense block per scored
        space (:class:`CentroidBlock`, cached on the identity of the
        centroid objects and compiled again on the first call after a
        write replaces any of them), and the page is scored against all
        k rows in one matrix-vector product per space.  Those kernel
        scores only pick candidates: the centroids within
        :func:`~repro.vsm.vector.rescore_window` of the kernel's maximum
        are rescored with the scalar Equation 3, and the first maximum
        among them is returned.

        A page with ``n`` terms in a space has each score, kernel or
        scalar, within ``γ(n + 5)·v`` of the exact value ``v`` of the
        same expression over the same cached norms: ``n`` roundings in
        the dot product in any summation order, two in the cosine's
        division, three in the combination.  That is the window's
        premise with ``terms = n`` (its docstring has the derivation).
        A kernel maximum of 0.0 means no centroid shares a term with
        the page, so every scalar score is 0.0 and the first centroid
        wins without rescoring.

        Counts ``len(centroids)`` comparisons; the rescore adds none.
        """
        k = len(centroids)
        if not k:
            raise ValueError("best() needs at least one centroid")
        self.stats.comparisons += k
        self._block = block = CentroidBlock.of(
            self._block, centroids, self.spaces
        )
        cosines = {}
        terms = 0
        for name, space in zip(self.spaces, block.spaces):
            vector = getattr(page, name)
            cosines[name] = space.cosines(vector)
            terms = max(terms, len(vector))
        scores = self.combine(cosines.get("pc", 0.0), cosines.get("fc", 0.0))
        return self.rescored_argmax(page, centroids, scores, terms)

    def rescored_argmax(
        self,
        page: HasVectorPair,
        centroids: Sequence[HasVectorPair],
        scores: np.ndarray,
        terms: int,
        previous: int = -1,
    ) -> Tuple[int, float]:
        """The one page x centroid argmax rule, shared by :meth:`best`
        and Algorithm 1's assignment
        (:meth:`~repro.core.simengine.SimilarityEngine.kmeans`, through
        :meth:`rescored_index`).

        ``scores`` are the page's kernel scores against ``centroids``
        and ``terms`` the page's largest scored-space length.  The
        centroids within :func:`~repro.vsm.vector.rescore_window` of the
        kernel maximum ``top`` are rescored with the scalar Equation 3
        (see :meth:`best` for why every centroid whose scalar score is
        the maximum lies inside), and the decision is the scalar loop's:
        ``previous`` if its scalar score is the maximum, else the first
        maximum.  A kernel maximum of 0.0 means every scalar score is
        0.0, so ``previous`` (or 0 when there is none, -1) wins without
        rescoring.  Returns the index and its scalar score.
        """
        candidates = _candidates(scores, terms)
        if not candidates:
            return max(previous, 0), self.combine(0.0, 0.0)
        best_index, best_score = -1, -1.0
        for index in candidates:
            score = self._score(page, centroids[index])
            if score > best_score or (
                score == best_score and index == previous
            ):
                best_index, best_score = index, score
        return best_index, best_score

    def rescored_index(
        self,
        page: HasVectorPair,
        centroids: Sequence[HasVectorPair],
        scores: np.ndarray,
        terms: int,
        previous: int = -1,
    ) -> int:
        """:meth:`rescored_argmax`'s index, for a caller that never reads
        the score (Algorithm 1's assignment): a window that holds one
        centroid is that centroid, taken without its scalar rescore."""
        candidates = _candidates(scores, terms)
        if len(candidates) == 1:
            return candidates[0]
        return self.rescored_argmax(page, centroids, scores, terms, previous)[0]
