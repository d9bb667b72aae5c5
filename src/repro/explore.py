"""Query-based exploration of CAFC clusters.

The paper's Section 6: "it is important to provide means for
applications and users to explore the resulting clusters.  We are
currently investigating visual and query-based interfaces for this
purpose."  This module is that query-based interface: keyword search
over the organized clusters, ranked by centroid similarity, plus
human-readable summaries.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.core.result import CAFCResult, OrganizedCluster
from repro.index import CentroidRows, top_k_exact
from repro.text.analyzer import TextAnalyzer
from repro.vsm.vector import KeywordQuery


@dataclass
class SearchHit:
    """One cluster matched by a query."""

    cluster_index: int
    cluster: OrganizedCluster
    score: float
    matched_terms: List[str]


class ClusterExplorer:
    """Keyword search and inspection over a :class:`CAFCResult`.

    Usage::

        explorer = ClusterExplorer(result)
        for hit in explorer.search("cheap flights to boston"):
            print(hit.cluster_index, hit.score, hit.cluster.top_terms)
    """

    def __init__(
        self, result: CAFCResult, analyzer: Optional[TextAnalyzer] = None
    ) -> None:
        self.result = result
        self.analyzer = analyzer or TextAnalyzer()
        self._rows: Optional[CentroidRows] = None

    def _centroid_rows(self) -> CentroidRows:
        """The combined (PC + FC) centroids, scored through one compiled
        block and built once per explorer (:mod:`repro.index`)."""
        if self._rows is None:
            self._rows = CentroidRows(
                cluster.centroid.pc.add(cluster.centroid.fc)
                for cluster in self.result.clusters
            )
        return self._rows

    # ----------------------------------------------------------------
    # Search.
    # ----------------------------------------------------------------

    def search(self, query: str, n: int = 3) -> List[SearchHit]:
        """Rank clusters against a keyword query.

        The query is analyzed with the same pipeline as page text and
        scored by cosine against each cluster's combined centroid (PC
        and FC summed — the query has no notion of feature spaces).
        Clusters with zero similarity are omitted; query words are
        never interned (:class:`~repro.vsm.vector.KeywordQuery`).
        """
        keywords = KeywordQuery(self.analyzer.analyze(query))
        if not keywords:
            return []
        rows = self._centroid_rows()
        ranked = top_k_exact(
            rows,
            keywords.vector,
            n,
            lambda i: keywords.cosine(rows.vectors[i]),
            norm=keywords.norm,
        )
        return [
            SearchHit(
                cluster_index=index,
                cluster=self.result.clusters[index],
                score=score,
                matched_terms=keywords.matched_terms(rows.vectors[index]),
            )
            for index, score in ranked
        ]

    # ----------------------------------------------------------------
    # Summaries.
    # ----------------------------------------------------------------

    def summary(self) -> str:
        """One line per cluster: index, size, descriptive terms."""
        lines = [
            f"{self.result.n_clusters} clusters over "
            f"{self.result.n_pages} databases "
            f"(algorithm: {self.result.algorithm})"
        ]
        for index, cluster in enumerate(self.result.clusters):
            terms = ", ".join(cluster.top_terms[:5])
            lines.append(f"[{index}] {cluster.size:>4} databases — {terms}")
        return "\n".join(lines)

    def describe(self, cluster_index: int, max_urls: int = 10) -> str:
        """Detailed view of one cluster."""
        if not 0 <= cluster_index < self.result.n_clusters:
            raise IndexError(
                f"cluster index {cluster_index} out of range "
                f"[0, {self.result.n_clusters})"
            )
        cluster = self.result.clusters[cluster_index]
        lines = [
            f"cluster {cluster_index}: {cluster.size} databases",
            f"descriptive terms: {', '.join(cluster.top_terms)}",
            "top page-context terms: "
            + ", ".join(f"{t} ({w:.1f})" for t, w in cluster.centroid.pc.top_terms(8)),
            "top form-context terms: "
            + ", ".join(f"{t} ({w:.1f})" for t, w in cluster.centroid.fc.top_terms(8)),
            "members:",
        ]
        for url in cluster.urls[:max_urls]:
            lines.append(f"  {url}")
        if cluster.size > max_urls:
            lines.append(f"  ... and {cluster.size - max_urls} more")
        return "\n".join(lines)
