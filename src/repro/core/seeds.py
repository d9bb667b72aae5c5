"""Algorithm 3 — SelectHubClusters: greedy farthest-first seed selection.

Given the (pruned) hub clusters, pick the ``k`` most mutually distant ones
to serve as k-means seeds:

1. compute the pairwise distance matrix between hub-cluster centroids
   (distance = 1 - Equation-3 similarity);
2. start with the two most distant clusters;
3. repeatedly add the cluster whose summed distance to the current seed
   set is maximal, until ``k`` seeds are chosen.

The paper argues the selection is robust to outliers because it operates
on clusters (multi-document centroids), not individual pages — provided
small clusters were pruned first (Section 3.3).

The distance matrix is one batched
:meth:`~repro.core.similarity.FormPageSimilarity.pairwise` call.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.core.hubs import HubCluster
from repro.core.similarity import FormPageSimilarity


def hub_distance_matrix(
    clusters: Sequence[HubCluster],
    *,
    similarity: Optional[FormPageSimilarity] = None,
) -> np.ndarray:
    """Pairwise centroid distances (1 - similarity), symmetric, zero diag.

    ``similarity`` defaults to the paper's Equation 3 (FC+PC,
    C1 = C2 = 1); pass one to use other weights or to share its stats.
    """
    similarity = similarity or FormPageSimilarity()
    centroids = [cluster.centroid for cluster in clusters]
    matrix = 1.0 - similarity.pairwise(centroids)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def select_hub_clusters(
    clusters: Sequence[HubCluster],
    k: int,
    *,
    similarity: Optional[FormPageSimilarity] = None,
) -> List[HubCluster]:
    """Pick the ``k`` most mutually distant hub clusters (Algorithm 3).

    Raises ValueError when fewer than ``k`` hub clusters are available —
    the caller should lower the cardinality threshold or fall back to
    random seeding.

    Determinism: ties in the greedy objective are broken by the clusters'
    order in ``clusters`` (which `build_hub_clusters` makes deterministic).

    The similarity arithmetic comes from ``similarity`` (see
    :func:`hub_distance_matrix`).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(clusters) < k:
        raise ValueError(
            f"need at least {k} hub clusters, have {len(clusters)}; "
            "lower min_hub_cardinality or use random seeding"
        )
    if k == 1:
        return [clusters[0]]

    distances = hub_distance_matrix(clusters, similarity=similarity)
    n = len(clusters)

    # Step 1: the two most distant clusters.  np.argmax on the upper
    # triangle gives the first maximal pair in row-major order.
    upper = np.triu(distances, k=1)
    flat_index = int(np.argmax(upper))
    first, second = divmod(flat_index, n)
    selected = [first, second]

    # Step 2: greedily add the cluster maximizing the summed distance to
    # the already-selected set.
    summed = distances[first] + distances[second]
    chosen_mask = np.zeros(n, dtype=bool)
    chosen_mask[[first, second]] = True
    while len(selected) < k:
        candidate_scores = np.where(chosen_mask, -np.inf, summed)
        best = int(np.argmax(candidate_scores))
        selected.append(best)
        chosen_mask[best] = True
        summed = summed + distances[best]

    return [clusters[i] for i in selected]
