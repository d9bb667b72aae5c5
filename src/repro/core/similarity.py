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
(:meth:`FormPageSimilarity.pairwise`) run on it; single pairs and
Section 5's argmax (:meth:`FormPageSimilarity.best`) run the scalar
cosines.  Both count into the one :class:`EngineStats`.
"""

from typing import Protocol, Sequence, Tuple

import numpy as np

from repro.core.config import CAFCConfig, ContentMode, check_weights
from repro.core.simengine import EngineStats, SimilarityEngine
from repro.vsm.vector import SparseVector, cosine_similarity


class HasVectorPair(Protocol):
    """Anything carrying the two feature-space vectors."""

    pc: SparseVector
    fc: SparseVector


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
        return self.combine(
            cosine_similarity(a.pc, b.pc) if self._pc else 0.0,
            cosine_similarity(a.fc, b.fc) if self._fc else 0.0,
        )

    def distance(self, a: HasVectorPair, b: HasVectorPair) -> float:
        """1 - similarity; used where the paper speaks of distance
        (Algorithm 3 picks the most *distant* hub clusters)."""
        return 1.0 - self(a, b)

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
        highest similarity to ``page``, and that similarity."""
        scores = [self(page, centroid) for centroid in centroids]
        index = max(range(len(scores)), key=scores.__getitem__)
        return index, scores[index]
