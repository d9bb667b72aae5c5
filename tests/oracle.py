"""Reference Equation-3 arithmetic: the oracle the batched engine is pinned to.

Everything here computes one scalar
:class:`~repro.core.similarity.FormPageSimilarity` call per pair — slow,
obviously correct, and the yardstick for
:class:`~repro.core.similarity.EngineBackend` /
:class:`~repro.core.simengine.SimilarityEngine` in the tests and the
bench smoke.
"""

from typing import List, Sequence

import numpy as np

from repro.clustering.kmeans import KMeansResult, kmeans
from repro.core.cafc_c import similarity_for
from repro.core.config import CAFCConfig
from repro.core.form_page import centroid_of
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import EngineStats


class NaiveBackend:
    """Per-pair Equation-3 calls behind the ``EngineBackend`` interface.

    Drop-in for the engine backend wherever a caller takes ``backend=``
    and only asks for ``pair`` / ``pairwise`` / ``page_centroid_matrix``
    (Algorithm 3's distance matrix, for one).  Counts comparisons the
    same way, so stats-based assertions apply to both.
    """

    def __init__(self, similarity: FormPageSimilarity) -> None:
        self.similarity = similarity
        self.stats = EngineStats(backend="naive")

    @classmethod
    def from_config(cls, config: CAFCConfig) -> "NaiveBackend":
        return cls(similarity_for(config))

    def pair(self, a, b) -> float:
        self.stats.comparisons += 1
        return self.similarity(a, b)

    def pairwise(self, items: Sequence) -> np.ndarray:
        n = len(items)
        matrix = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            matrix[i, i] = self.pair(items[i], items[i])
            for j in range(i + 1, n):
                value = self.pair(items[i], items[j])
                matrix[i, j] = value
                matrix[j, i] = value
        return matrix

    def page_centroid_matrix(
        self, pages: Sequence, centroids: Sequence
    ) -> List[List[float]]:
        return [
            [self.pair(page, centroid) for centroid in centroids]
            for page in pages
        ]


def oracle_kmeans(
    pages: Sequence, seed_centroids: Sequence, config: CAFCConfig
) -> KMeansResult:
    """Algorithm 1 on the generic per-pair k-means loop."""
    return kmeans(
        points=list(pages),
        initial_centroids=list(seed_centroids),
        similarity=similarity_for(config),
        make_centroid=centroid_of,
        stop_fraction=config.stop_fraction,
        max_iterations=config.max_iterations,
    )


def max_abs_diff(a, b) -> float:
    """Largest elementwise gap between two equal-shape matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, (a.shape, b.shape)
    return float(np.max(np.abs(a - b))) if a.size else 0.0
