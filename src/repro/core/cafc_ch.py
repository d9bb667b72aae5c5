"""CAFC-CH — Algorithm 2: hub-seeded content clustering.

The two-phase composition that is the paper's key idea (Section 3):

1. **Hub phase** — build hub clusters from backlinks, prune small ones,
   and greedily select the ``k`` most mutually distant (Algorithm 3).
2. **Content phase** — run CAFC-C's k-means *from those hub-cluster
   centroids* instead of random seeds; content similarity then reinforces
   or negates the hub-induced similarity.

Hub evidence is used only for seeding — after the first assignment pass
every page (including the hub-cluster members) is free to move, which is
how content "negates" a bad hub grouping.

Hub evidence is also the pipeline's flakiest input (it comes from the
``link:`` APIs the paper found incomplete), so this module owns the
graceful-degradation step: with ``fallback=True``, a run whose backlink
coverage collapsed below usability degrades to CAFC-C's random seeding
— the paper's own ordering of the algorithms — with a structured
warning and a ``degraded_fallbacks`` counter bump instead of an
exception.
"""

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.clustering.kmeans import KMeansResult
from repro.core.cafc_c import cafc_c
from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage
from repro.core.hubs import HubCluster, backlink_coverage, build_hub_clusters
from repro.core.seeds import select_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.resilience.stats import STATS

logger = logging.getLogger("repro.resilience")


@dataclass
class CAFCCHResult:
    """CAFC-CH output: the k-means result plus the hub phase's artifacts
    (useful for analysis and the hub-statistics experiments).

    ``degraded`` is True when the run fell back to CAFC-C random
    seeding because too few hub clusters survived (only possible with
    ``fallback=True``); ``selected_seeds`` is then empty."""

    kmeans: KMeansResult
    hub_clusters: List[HubCluster]
    selected_seeds: List[HubCluster]
    degraded: bool = False
    degraded_reason: str = ""

    @property
    def clustering(self):
        return self.kmeans.clustering


def cafc_ch(
    pages: Sequence[FormPage],
    config: Optional[CAFCConfig] = None,
    hub_clusters: Optional[List[HubCluster]] = None,
    similarity: Optional[FormPageSimilarity] = None,
    fallback: bool = False,
) -> CAFCCHResult:
    """Run CAFC-CH (Algorithm 2).

    Parameters
    ----------
    pages:
        Vectorized form pages, backlinks included.
    config:
        Run configuration (notably ``min_hub_cardinality``, Figure 3's
        sweep variable).
    hub_clusters:
        Pre-built hub clusters (already pruned); built from ``pages`` when
        omitted.  Passing them in lets experiments reuse one hub harvest
        across many configurations.
    similarity:
        The :class:`~repro.core.similarity.FormPageSimilarity` serving
        both phases (the Algorithm-3 distance matrix and the k-means
        loop); built from ``config`` when omitted.
    fallback:
        When True and fewer than ``k`` hub clusters survive pruning
        (backlink coverage collapsed, aggressive pruning, tiny corpus),
        degrade to CAFC-C random seeding instead of raising: the result
        carries ``degraded=True`` plus the reason, a structured warning
        is logged, and the process-wide ``degraded_fallbacks`` counter
        (surfaced as a ``/metrics`` gauge) is bumped.

    Raises
    ------
    ValueError
        Without ``fallback``, when fewer than ``k`` hub clusters survive
        pruning.  Callers that want graceful degradation should pass
        ``fallback=True`` (or catch this and run
        :func:`repro.core.cafc_c.cafc_c` themselves).
    """
    config = config or CAFCConfig()
    if hub_clusters is None:
        hub_clusters = build_hub_clusters(
            pages, min_cardinality=config.min_hub_cardinality
        )
    similarity = similarity or FormPageSimilarity.from_config(config)
    try:
        selected = select_hub_clusters(
            hub_clusters, config.k, similarity=similarity
        )
    except ValueError as exc:
        if not fallback:
            raise
        coverage = backlink_coverage(pages)
        reason = (
            f"{len(hub_clusters)} hub cluster(s) for k={config.k} "
            f"(backlink coverage {coverage:.0%}); "
            "degrading to CAFC-C random seeding"
        )
        logger.warning(
            "cafc-ch degraded: %s", reason,
            extra={
                "event": "cafc_ch_degraded",
                "n_hub_clusters": len(hub_clusters),
                "k": config.k,
                "backlink_coverage": coverage,
            },
        )
        STATS.inc("degraded_fallbacks")
        result = cafc_c(pages, config, similarity=similarity)
        return CAFCCHResult(
            kmeans=result,
            hub_clusters=hub_clusters,
            selected_seeds=[],
            degraded=True,
            degraded_reason=f"{exc}",
        )
    seed_centroids = [cluster.centroid for cluster in selected]
    result = cafc_c(
        pages, config, seed_centroids=seed_centroids, similarity=similarity
    )
    return CAFCCHResult(kmeans=result, hub_clusters=hub_clusters, selected_seeds=selected)
