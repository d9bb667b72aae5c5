"""Shared experiment context: corpus, vectorized pages, hub clusters.

Generating and vectorizing the 454-page corpus takes a couple of seconds;
every experiment needs the same artifacts.  ``get_context`` builds them
once per (seed, uniform_weights) pair and caches the result for the
process lifetime.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage, RawFormPage
from repro.core.hubs import HubCluster, build_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer
from repro.parallel.config import ParallelConfig
from repro.vsm.weights import LocationWeights
from repro.webgen.corpus import SyntheticWeb, generate_benchmark


@dataclass
class ExperimentContext:
    """Everything the experiments share for one corpus."""

    web: SyntheticWeb
    raw_pages: List[RawFormPage]
    pages: List[FormPage]
    gold_labels: List[str]
    raw_hub_clusters: List[HubCluster]   # min cardinality 1, for statistics
    config: CAFCConfig
    ingest_summary: str = "serial"       # how vectorization actually ran

    @property
    def similarity(self) -> FormPageSimilarity:
        return FormPageSimilarity.from_config(self.config)

    def similarity_matrix(self) -> np.ndarray:
        """All-pairs Equation-3 similarity over the pages (HAC input)."""
        return self.similarity.pairwise(self.pages)

    def hub_clusters(self, min_cardinality: int) -> List[HubCluster]:
        """Hub clusters pruned at ``min_cardinality`` (from the raw set)."""
        return [
            cluster
            for cluster in self.raw_hub_clusters
            if cluster.cardinality >= min_cardinality
        ]


@lru_cache(maxsize=8)
def get_context(
    seed: int = 42,
    uniform_weights: bool = False,
    workers: int = 1,
    scheme: str = "auto",
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context.

    ``uniform_weights`` vectorizes with LOC factors all set to 1 — the
    Section 4.4 ablation input.  ``workers`` configures the ingestion
    layer (see docs/INGESTION.md); vectors are
    bit-identical regardless, so every (seed, uniform_weights) pair
    yields the same experiment numbers at any worker count.
    ``scheme`` vectorizes under an alternative weighting scheme
    (``"bm25"``, ``"tf"`` — see docs/RANKING.md) for per-scheme A/B
    runs; the default is the paper's Equation 1.
    """
    parallel = ParallelConfig(workers=workers)
    web = generate_benchmark(seed=seed)
    raw = web.raw_pages(parallel=parallel)
    location_weights = (
        LocationWeights.uniform() if uniform_weights else LocationWeights()
    )
    vectorizer = FormPageVectorizer(
        location_weights=location_weights, parallel=parallel, scheme=scheme
    )
    pages = vectorizer.fit_transform(raw)
    gold = [page.label or "?" for page in pages]
    hub_clusters = build_hub_clusters(pages, min_cardinality=1)
    return ExperimentContext(
        web=web,
        raw_pages=raw,
        pages=pages,
        gold_labels=gold,
        raw_hub_clusters=hub_clusters,
        config=CAFCConfig(k=8, scheme=scheme),
        ingest_summary=vectorizer.ingest_stats.describe(),
    )
