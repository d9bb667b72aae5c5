"""Hub-cluster quality scoring and quality-aware seed selection.

Algorithm 3 treats all (size-pruned) hub clusters alike.  Two quality
signals improve on that:

* **tightness** — the mean pairwise Equation-3 similarity between a hub
  cluster's member pages.  Domain hubs ("best job sites") co-cite pages
  that talk alike; heterogeneous directories co-cite pages across
  domains, so their tightness is low.  This is the content-side quality
  signal.
* **hub score** — the hub page's HITS hub score (structural signal;
  exposed for analysis, deliberately *not* used to rank seeds: generic
  directories have very high hub scores precisely because they link
  everywhere, which is the opposite of what a seed needs).

``select_hub_clusters_quality_aware`` drops the loosest clusters before
running the standard greedy farthest-first selection, which keeps
CAFC-CH stable when high cardinality thresholds leave mostly
directories in the candidate pool (the failure mode on the right edge of
Figure 3).
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence

from repro.core.form_page import FormPage
from repro.core.hubs import HubCluster
from repro.core.seeds import select_hub_clusters
from repro.core.similarity import FormPageSimilarity


@dataclass
class HubQuality:
    """Quality signals for one hub cluster."""

    cluster: HubCluster
    tightness: float            # mean pairwise member similarity
    hub_score: float = 0.0      # HITS hub score of the hub page, if known

    @property
    def cardinality(self) -> int:
        return self.cluster.cardinality


def cluster_tightness(
    cluster: HubCluster,
    pages: Sequence[FormPage],
    similarity: FormPageSimilarity,
) -> float:
    """Mean pairwise Equation-3 similarity among member pages.

    For very large clusters only the first 200 member pairs are
    sampled (deterministically, in index order) — tightness is a mean,
    so a prefix sample is adequate and keeps the cost linear-ish.
    """
    members = cluster.members
    if len(members) < 2:
        return 1.0
    total = 0.0
    count = 0
    for i, j in combinations(members, 2):
        total += similarity(pages[i], pages[j])
        count += 1
        if count >= 200:
            break
    return total / count if count else 1.0


def score_hub_clusters(
    clusters: Sequence[HubCluster],
    pages: Sequence[FormPage],
    similarity: FormPageSimilarity,
    hub_scores: Optional[Dict[str, float]] = None,
) -> List[HubQuality]:
    """Score every hub cluster; sorted tightest-first."""
    hub_scores = hub_scores or {}
    scored = [
        HubQuality(
            cluster=cluster,
            tightness=cluster_tightness(cluster, pages, similarity),
            hub_score=hub_scores.get(cluster.hub_url, 0.0),
        )
        for cluster in clusters
    ]
    scored.sort(key=lambda q: (-q.tightness, q.cluster.hub_url))
    return scored


def select_hub_clusters_quality_aware(
    clusters: Sequence[HubCluster],
    k: int,
    pages: Sequence[FormPage],
    similarity: FormPageSimilarity,
    drop_fraction: float = 0.25,
) -> List[HubCluster]:
    """Algorithm 3 with a tightness pre-filter.

    The loosest ``drop_fraction`` of the candidate clusters are removed
    (never dropping below ``k`` candidates), then the standard greedy
    farthest-first selection runs on the remainder.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    if len(clusters) < k:
        raise ValueError(f"need at least {k} hub clusters, have {len(clusters)}")

    scored = score_hub_clusters(clusters, pages, similarity)
    keep = max(k, int(round(len(scored) * (1.0 - drop_fraction))))
    survivors = [quality.cluster for quality in scored[:keep]]
    return select_hub_clusters(survivors, k, similarity=similarity)
