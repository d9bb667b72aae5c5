"""High-level CAFC pipeline: raw HTML pages in, organized clusters out.

:class:`CAFCPipeline` wires the whole stack together:

    raw form pages (URL + HTML + backlinks)
      -> FormPageVectorizer      (Equation 1 vectors)
      -> CAFC-CH or CAFC-C       (Algorithms 1-3)
      -> CAFCResult              (clusters + descriptive labels)

plus the Section-5 extension: classifying *new* form pages against the
built clusters ("once the clusters are built and properly labeled ...
they can be used as the basis to automatically classify new sources").
"""

from typing import List, Optional, Sequence

from repro.core.cafc_c import cafc_c
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage, RawFormPage, centroid_of
from repro.core.result import CAFCResult, OrganizedCluster, _label_terms
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer


class CAFCPipeline:
    """One-call interface to CAFC.

    Usage::

        pipeline = CAFCPipeline(CAFCConfig(k=8))
        result = pipeline.organize(raw_pages)           # CAFC-CH, with
                                                        # CAFC-C fallback
        for cluster in result.clusters:
            print(cluster.top_terms, cluster.size)

        domain = pipeline.classify(new_raw_page, result)
    """

    def __init__(self, config: Optional[CAFCConfig] = None) -> None:
        self.config = config or CAFCConfig()
        self.vectorizer = FormPageVectorizer(
            location_weights=self.config.location_weights,
            max_backlinks=self.config.max_backlinks,
            parallel=self.config.parallel,
            scheme=self.config.scheme,
        )
        self.similarity = FormPageSimilarity.from_config(self.config)

    # ----------------------------------------------------------------
    # Organizing.
    # ----------------------------------------------------------------

    def vectorize(self, raw_pages: Sequence[RawFormPage]) -> List[FormPage]:
        """Vectorize a collection (fits corpus IDF statistics)."""
        return self.vectorizer.fit_transform(raw_pages)

    def organize(
        self,
        raw_pages: Sequence[RawFormPage],
        algorithm: str = "cafc-ch",
    ) -> CAFCResult:
        """Cluster raw form pages into database-domain groups.

        ``algorithm`` is ``"cafc-ch"`` (default; falls back to CAFC-C when
        too few hub clusters survive pruning), ``"cafc-c"``, or ``"hac"``
        (content-only agglomerative clustering, the Table-2 alternative).
        """
        if algorithm not in ("cafc-ch", "cafc-c", "hac"):
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        pages = self.vectorize(raw_pages)
        return self.organize_vectorized(pages, algorithm)

    def organize_vectorized(
        self,
        pages: Sequence[FormPage],
        algorithm: str = "cafc-ch",
    ) -> CAFCResult:
        """Cluster already-vectorized form pages."""
        used_hubs = False
        degraded = False
        n_hub_clusters = 0
        seed_hub_urls: List[str] = []
        iterations = 0

        if algorithm == "cafc-ch":
            # Too few hub clusters (backlink coverage collapsed) degrades
            # to content-only CAFC-C inside cafc_ch — the paper's own
            # fallback ordering — with a structured warning and a
            # degraded_fallbacks counter bump, never an exception.
            ch_result = cafc_ch(
                pages, self.config, similarity=self.similarity, fallback=True
            )
            km_result = ch_result.kmeans
            n_hub_clusters = len(ch_result.hub_clusters)
            if ch_result.degraded:
                degraded = True
                algorithm = "cafc-c (hub fallback)"
            else:
                used_hubs = True
                seed_hub_urls = [seed.hub_url for seed in ch_result.selected_seeds]
            clustering = km_result.clustering
            iterations = km_result.iterations
        elif algorithm == "hac":
            from repro.clustering.hac import Linkage, hac

            matrix = self.similarity.pairwise(pages)
            hac_result = hac(
                matrix, n_clusters=min(self.config.k, len(pages)),
                linkage=Linkage.AVERAGE,
            )
            clustering = hac_result.clustering
            iterations = len(hac_result.merges)
        else:
            km_result = cafc_c(pages, self.config, similarity=self.similarity)
            clustering = km_result.clustering
            iterations = km_result.iterations

        clusters = []
        for members in clustering.compact().clusters:
            member_pages = [pages[i] for i in members]
            centroid = centroid_of(member_pages)
            clusters.append(
                OrganizedCluster(
                    pages=member_pages,
                    centroid=centroid,
                    top_terms=_label_terms(centroid),
                )
            )
        clusters.sort(key=lambda c: -c.size)
        return CAFCResult(
            clusters=clusters,
            algorithm=algorithm,
            iterations=iterations,
            used_hub_seeding=used_hubs,
            n_hub_clusters=n_hub_clusters,
            seed_hub_urls=seed_hub_urls,
            degraded=degraded,
            engine_stats=self.similarity.stats.snapshot(),
        )

    # ----------------------------------------------------------------
    # Classifying new pages (Section 5 extension).
    # ----------------------------------------------------------------

    def classify(self, raw_page: RawFormPage, result: CAFCResult) -> int:
        """Assign a new page to the most similar existing cluster.

        Returns the index of the winning cluster in ``result.clusters``.
        The page is vectorized against the frozen corpus statistics, so
        the pipeline must have organized a collection first.
        """
        if not result.clusters:
            raise ValueError("cannot classify against an empty result")
        page = self.vectorizer.transform_new(raw_page)
        centroids = [cluster.centroid for cluster in result.clusters]
        return self.similarity.best(page, centroids)[0]
