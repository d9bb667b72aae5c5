"""The organized directory as data: clusters, their labels, the run's
bookkeeping.

:class:`CAFCResult` is what :class:`~repro.core.pipeline.CAFCPipeline`
returns and what snapshots, saved results and the explorer read back.
It lives apart from the pipeline so that code which only loads or
serves a result (:mod:`repro.service`, :mod:`repro.datasets`) does not
import the clustering algorithms.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.form_page import FormPage, VectorPair
from repro.core.simengine import EngineStats


@dataclass
class OrganizedCluster:
    """One output cluster: its member pages, centroid, and a descriptive
    label derived from the centroid's heaviest terms."""

    pages: List[FormPage]
    centroid: VectorPair
    top_terms: List[str]

    @property
    def size(self) -> int:
        return len(self.pages)

    @property
    def urls(self) -> List[str]:
        return [page.url for page in self.pages]


@dataclass
class CAFCResult:
    """Pipeline output: the organized clusters plus bookkeeping."""

    clusters: List[OrganizedCluster]
    algorithm: str
    iterations: int
    used_hub_seeding: bool
    # Only populated by CAFC-CH runs:
    n_hub_clusters: int = 0
    seed_hub_urls: List[str] = field(default_factory=list)
    # True when a CAFC-CH run gracefully degraded to CAFC-C random
    # seeding (too few hub clusters — backlink coverage collapsed).
    degraded: bool = False
    # Similarity-engine instrumentation for the run (``--profile``);
    # None for results loaded from disk.
    engine_stats: Optional[EngineStats] = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_pages(self) -> int:
        return sum(cluster.size for cluster in self.clusters)


#: How many descriptive terms label a cluster.
LABEL_TERMS = 6


def _label_terms(centroid: VectorPair) -> List[str]:
    """Descriptive terms for a cluster: heaviest centroid terms, with the
    two spaces interleaved (PC first — page vocabulary reads better)."""
    pc_terms = [term for term, _ in centroid.pc.top_terms(LABEL_TERMS)]
    fc_terms = [term for term, _ in centroid.fc.top_terms(LABEL_TERMS)]
    merged: List[str] = []
    for pc_term, fc_term in zip(pc_terms, fc_terms):
        for term in (pc_term, fc_term):
            if term not in merged:
                merged.append(term)
    return merged[:LABEL_TERMS] if merged else pc_terms[:LABEL_TERMS]
