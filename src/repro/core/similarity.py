"""Form-page similarity — Equation 3 — and its batched engine backend.

``sim(FP1, FP2) = (C1 * cos(PC1, PC2) + C2 * cos(FC1, FC2)) / (C1 + C2)``

The similarity object works over anything exposing ``.pc`` and ``.fc``
sparse vectors (both :class:`~repro.core.form_page.FormPage` points and
:class:`~repro.core.form_page.VectorPair` centroids), so the same instance
drives k-means assignment, HAC matrices and hub-cluster distances.

The *content mode* restricts which spaces contribute — the FC / PC / FC+PC
configurations of Figure 2.

Consumers (Algorithm 1's assignment loop, Algorithm 3's distance
matrix, incremental classification) go through :class:`EngineBackend`,
which serves batched shapes from the compiled
:class:`~repro.core.simengine.SimilarityEngine` and single pairs from
:class:`FormPageSimilarity`, counting both in one :class:`EngineStats`.
"""

from typing import Protocol, Sequence

import numpy as np

from repro.core.config import CAFCConfig, ContentMode
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
        weight is ignored entirely (the paper's FC and PC configurations).
    page_weight / form_weight:
        C1 and C2.  The paper uses C1 = C2 = 1.
    """

    def __init__(
        self,
        content_mode: ContentMode = ContentMode.FC_PC,
        page_weight: float = 1.0,
        form_weight: float = 1.0,
    ) -> None:
        if content_mode.uses_pc and content_mode.uses_fc:
            if page_weight <= 0 and form_weight <= 0:
                raise ValueError("combined mode needs a positive weight")
        self.content_mode = content_mode
        self.page_weight = page_weight
        self.form_weight = form_weight

    def __call__(self, a: HasVectorPair, b: HasVectorPair) -> float:
        """Similarity in [0, 1] (cosines of non-negative vectors)."""
        mode = self.content_mode
        if mode is ContentMode.PC:
            return cosine_similarity(a.pc, b.pc)
        if mode is ContentMode.FC:
            return cosine_similarity(a.fc, b.fc)
        weighted = (
            self.page_weight * cosine_similarity(a.pc, b.pc)
            + self.form_weight * cosine_similarity(a.fc, b.fc)
        )
        return weighted / (self.page_weight + self.form_weight)

    def distance(self, a: HasVectorPair, b: HasVectorPair) -> float:
        """1 - similarity; used where the paper speaks of distance
        (Algorithm 3 picks the most *distant* hub clusters)."""
        return 1.0 - self(a, b)


class EngineBackend:
    """The batched Equation-3 backend over the compiled engine.

    Engines are compiled per collection and cached (keyed by the
    identity of the collection's items), so repeated batch calls over
    the same pages — k-means iterations, sweeps, cohesion checks —
    reuse one compilation.  ``stats`` aggregates over every engine this
    backend built.
    """

    _CACHE_SIZE = 4

    def __init__(
        self,
        content_mode: ContentMode = ContentMode.FC_PC,
        page_weight: float = 1.0,
        form_weight: float = 1.0,
    ) -> None:
        self.content_mode = content_mode
        self.page_weight = page_weight
        self.form_weight = form_weight
        self.stats = EngineStats()
        self._scalar = FormPageSimilarity(content_mode, page_weight, form_weight)
        self._engines: "dict[tuple, SimilarityEngine]" = {}

    @classmethod
    def from_config(cls, config: CAFCConfig) -> "EngineBackend":
        return cls(
            content_mode=config.content_mode,
            page_weight=config.page_weight,
            form_weight=config.form_weight,
        )

    def engine_for(self, items: Sequence[HasVectorPair]) -> SimilarityEngine:
        """The compiled engine for ``items`` (cached by item identity)."""
        key = tuple(id(item) for item in items)
        engine = self._engines.get(key)
        if engine is not None:
            self.stats.cache_hits += 1
            return engine
        engine = SimilarityEngine(
            items,
            content_mode=self.content_mode,
            page_weight=self.page_weight,
            form_weight=self.form_weight,
        )
        # The engine holds the items alive, so ids stay valid while cached.
        if len(self._engines) >= self._CACHE_SIZE:
            self._engines.pop(next(iter(self._engines)))
        self._engines[key] = engine
        self._merge(engine)
        return engine

    def _merge(self, engine: SimilarityEngine) -> None:
        self.stats.n_pages = max(self.stats.n_pages, engine.stats.n_pages)
        self.stats.n_terms = max(self.stats.n_terms, engine.stats.n_terms)
        self.stats.build_seconds += engine.stats.build_seconds

    def collect(self, engine: SimilarityEngine) -> None:
        """Fold an engine's counters into the aggregate stats."""
        self.stats.comparisons += engine.stats.comparisons
        self.stats.cache_hits += engine.stats.cache_hits
        engine.stats.comparisons = 0
        engine.stats.cache_hits = 0

    def pair(self, a: HasVectorPair, b: HasVectorPair) -> float:
        # A single pair gains nothing from compilation; the scalar path
        # is the same arithmetic.
        self.stats.comparisons += 1
        return self._scalar(a, b)

    def pairwise(self, items: Sequence[HasVectorPair]) -> np.ndarray:
        """Full symmetric similarity matrix over ``items``."""
        engine = self.engine_for(items)
        matrix = engine.pairwise()
        self.collect(engine)
        return matrix
