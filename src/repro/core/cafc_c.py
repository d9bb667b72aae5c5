"""CAFC-C — Algorithm 1: k-means over form pages.

``cafc_c(pages, config)`` runs the paper's content-based clustering:

* seeds: ``k`` randomly selected form pages (their own vectors serve as
  the initial centroids), or caller-provided seed centroids (this is the
  hook CAFC-CH and the HAC-seeding experiment use — Algorithm 2 line 3
  literally calls "CAFC-C(..., hubClusters)");
* assignment: Equation-3 similarity between a page and each centroid;
* update: Equation-4 per-space mean;
* stop: fewer than ``stop_fraction`` of pages moved (paper: 10%).

The loop runs on the compiled
:class:`~repro.core.simengine.SimilarityEngine`
(:meth:`~repro.core.simengine.SimilarityEngine.kmeans`), which is the
generic :func:`repro.clustering.kmeans.kmeans` driven by
:class:`~repro.core.similarity.FormPageSimilarity` and
:func:`~repro.core.form_page.centroid_of` by construction: each pass
assigns with the argmax rule Section 5's classification uses
(:meth:`~repro.core.similarity.FormPageSimilarity.rescored_argmax`), on
the scalar Equation-3 floats, so the clustering, the iteration count and
the centroids are the generic loop's.
"""

import random
from typing import List, Optional, Sequence

from repro.clustering.kmeans import KMeansResult
from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage, VectorPair
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine


def random_seed_centroids(
    pages: Sequence[FormPage], k: int, rng: random.Random
) -> List[VectorPair]:
    """Algorithm 1 line 2: centroids of ``k`` randomly chosen form pages.

    A seed cluster of size one has the page's own vectors as its centroid.
    """
    if k > len(pages):
        raise ValueError(f"cannot seed {k} clusters from {len(pages)} pages")
    indices = rng.sample(range(len(pages)), k)
    return [VectorPair.of(pages[i]) for i in indices]


def cafc_c(
    pages: Sequence[FormPage],
    config: Optional[CAFCConfig] = None,
    seed_centroids: Optional[Sequence[VectorPair]] = None,
    similarity: Optional[FormPageSimilarity] = None,
) -> KMeansResult:
    """Run CAFC-C (Algorithm 1).

    Parameters
    ----------
    pages:
        Vectorized form pages.
    config:
        Run configuration; defaults to the paper's setup.
    seed_centroids:
        Optional externally computed seeds (hub clusters for CAFC-CH,
        HAC groups for the Section 4.3 experiment).  When omitted, ``k``
        random pages seed the run, drawn from ``config.seed``'s RNG.
    similarity:
        The Equation-3 :class:`~repro.core.similarity.FormPageSimilarity`
        the loop scores with and whose stats the run's comparisons land
        in; built from ``config`` when omitted.

    Returns
    -------
    KMeansResult whose clustering indexes into ``pages``.
    """
    config = config or CAFCConfig()
    similarity = similarity or FormPageSimilarity.from_config(config)
    if seed_centroids is None:
        rng = random.Random(config.seed)
        seed_centroids = random_seed_centroids(pages, config.k, rng)
    elif len(seed_centroids) != config.k:
        raise ValueError(
            f"got {len(seed_centroids)} seed centroids for k={config.k}"
        )

    engine = SimilarityEngine(pages, similarity)
    result = engine.kmeans(
        list(seed_centroids),
        stop_fraction=config.stop_fraction,
        max_iterations=config.max_iterations,
    )
    similarity.stats.merge(engine.stats)
    return result
