"""Incremental cluster maintenance.

The paper's opening motivation: "the Web is so vast and dynamic — with
new sources constantly being added and old sources removed and modified
— [that] a scalable solution ... must automatically discover" and keep
organizing sources.  Re-running CAFC from scratch on every discovery is
wasteful; this module maintains an organized collection incrementally:

* **add** — a new form page is vectorized against the frozen corpus
  statistics, assigned to its most similar cluster (Section 5's
  classification step), and the cluster centroid is updated.  Each add
  costs exactly ``k + 1`` similarity evaluations (one per centroid to
  pick the cluster, one for the new page's cohesion contribution) —
  independent of how many pages are managed;
* **remove** — a page leaves its cluster; the centroid is rebuilt (no
  similarity evaluations at all);
* **drift detection** — incremental updates slowly degrade the
  partition (the corpus IDF ages, centroids absorb borderline pages).
  The organizer tracks the mean assignment similarity as a *running
  sum*: each page's page-to-centroid similarity is recorded when the
  page is assigned and retired when it leaves.  Contributions are not
  recomputed when a centroid later moves, so the running cohesion is an
  approximation that drifts with the clusters — exactly the quantity a
  staleness monitor wants.  ``refresh_cohesion()`` re-scores everything
  when an exact value is needed.  When cohesion falls below a factor of
  its initial level, ``needs_reclustering`` turns on and the caller
  should run the full pipeline again.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage, RawFormPage, VectorPair, centroid_of
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine
from repro.core.vectorizer import FormPageVectorizer


@dataclass
class IncrementalCluster:
    """One maintained cluster."""

    pages: List[FormPage] = field(default_factory=list)
    centroid: VectorPair = field(
        default_factory=lambda: VectorPair(
            pc=centroid_of([]).pc, fc=centroid_of([]).fc
        )
    )

    @property
    def size(self) -> int:
        return len(self.pages)

    def rebuild_centroid(self) -> None:
        self.centroid = centroid_of(self.pages)


class IncrementalOrganizer:
    """Maintains a CAFC clustering as sources come and go.

    Build it from an initial full clustering (lists of vectorized pages
    per cluster) plus the fitted vectorizer, then feed it additions and
    removals.  Watch :attr:`needs_reclustering`.

    ``similarity.stats.comparisons`` counts every similarity evaluation,
    which is how the regression tests pin the O(1)-per-add property.
    """

    def __init__(
        self,
        initial_clusters: List[List[FormPage]],
        vectorizer: FormPageVectorizer,
        config: Optional[CAFCConfig] = None,
        drift_threshold: float = 0.7,
    ) -> None:
        if not initial_clusters:
            raise ValueError("need at least one initial cluster")
        if not 0.0 < drift_threshold <= 1.0:
            raise ValueError("drift_threshold must be in (0, 1]")
        self.config = config or CAFCConfig()
        self.vectorizer = vectorizer
        self.similarity = FormPageSimilarity.from_config(self.config)
        self.drift_threshold = drift_threshold
        self.clusters: List[IncrementalCluster] = []
        self._by_url: Dict[str, int] = {}
        for members in initial_clusters:
            cluster = IncrementalCluster(pages=list(members))
            cluster.rebuild_centroid()
            self.clusters.append(cluster)
            for page in members:
                self._by_url[page.url] = len(self.clusters) - 1

        self._contrib: Dict[str, float] = {}
        self._cohesion_sum = 0.0
        self.refresh_cohesion()
        self._baseline_cohesion = self.cohesion
        self.n_added = 0
        self.n_removed = 0

    # ----------------------------------------------------------------
    # Cohesion / drift.
    # ----------------------------------------------------------------

    def refresh_cohesion(self) -> float:
        """Re-score every page against its current centroid (O(n)
        similarity evaluations), re-syncing the running sum.  Returns the
        refreshed mean cohesion.

        An empty organizer (clusters exist but hold no pages — a
        directory bootstrapped before any source arrived, or drained by
        removals) has cohesion 0.0 by definition; the guard keeps the
        mean from dividing by the zero page count.
        """
        self._contrib = {}
        self._cohesion_sum = 0.0
        if not self._by_url:
            return 0.0
        for cluster in self.clusters:
            for page in cluster.pages:
                value = self.similarity(page, cluster.centroid)
                self._contrib[page.url] = value
                self._cohesion_sum += value
        return self.cohesion

    @property
    def cohesion(self) -> float:
        """Mean page-to-own-centroid similarity (running sum, O(1))."""
        count = len(self._contrib)
        return self._cohesion_sum / count if count else 0.0

    @property
    def needs_reclustering(self) -> bool:
        """True when cohesion fell below ``drift_threshold`` x initial."""
        if self._baseline_cohesion == 0.0 or not self._by_url:
            return False
        return self.cohesion < self.drift_threshold * self._baseline_cohesion

    # ----------------------------------------------------------------
    # Updates.
    # ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_url)

    def __contains__(self, url: str) -> bool:
        return url in self._by_url

    def cluster_of(self, url: str) -> int:
        """Cluster index of a managed page (KeyError when unknown)."""
        return self._by_url[url]

    def centroid_pairs(self) -> List[VectorPair]:
        """The current centroids, in cluster order (read-only view)."""
        return [cluster.centroid for cluster in self.clusters]

    # ----------------------------------------------------------------
    # Classification (Section 5) — read-only scoring paths.
    # ----------------------------------------------------------------

    def classify_vectorized(self, page: FormPage) -> Tuple[int, float]:
        """Best cluster for an already-vectorized page, without mutating
        anything: the argmax of Equation 3 over the k centroids.
        Returns ``(cluster_index, similarity)``; ties break toward the
        lowest index, exactly as :meth:`add` assigns, and the similarity
        is the same scalar float :meth:`add` sees.  Costs
        ``len(self.clusters)`` similarity evaluations.
        """
        return self.similarity.best(page, self.centroid_pairs())

    def classify(self, raw: RawFormPage) -> Tuple[int, float]:
        """Vectorize a raw page and score it (no mutation) — the serving
        path's non-destructive twin of :meth:`add`."""
        return self.classify_vectorized(self.vectorizer.transform_new(raw))

    def classify_batch(
        self, pages: Sequence[FormPage]
    ) -> List[Tuple[int, float]]:
        """:meth:`classify_vectorized` over each page, in order — the
        call the serving directory scores requests through."""
        return [self.classify_vectorized(page) for page in pages]

    def add(self, raw: RawFormPage) -> int:
        """Insert a newly discovered source; returns its cluster index.

        The page is vectorized against the frozen corpus statistics and
        joins its most similar cluster (classification, Section 5).
        Re-adding a managed URL replaces the old page first.

        Cost: exactly ``len(self.clusters) + 1`` similarity evaluations,
        regardless of collection size.
        """
        if raw.url in self._by_url:
            self.remove(raw.url)
        return self._insert(self.vectorizer.transform_new(raw))

    def add_vectorized(self, page: FormPage) -> int:
        """Insert an already-vectorized page (the server vectorizes
        outside its write lock, then inserts under it).  Same semantics
        and similarity budget as :meth:`add`."""
        if page.url in self._by_url:
            self.remove(page.url)
        return self._insert(page)

    def _insert(self, page: FormPage) -> int:
        best_index, _ = self.classify_vectorized(page)
        cluster = self.clusters[best_index]
        cluster.pages.append(page)
        cluster.rebuild_centroid()
        contribution = self.similarity(page, cluster.centroid)
        self._contrib[page.url] = contribution
        self._cohesion_sum += contribution
        self._by_url[page.url] = best_index
        self.n_added += 1
        if self._baseline_cohesion == 0.0 and self.cohesion > 0.0:
            # The organizer started empty (baseline 0 would disarm drift
            # detection forever); the first real content re-arms it.
            self._baseline_cohesion = self.cohesion
        return best_index

    def remove(self, url: str) -> bool:
        """Drop a source (a database went offline).  Returns False when
        the URL is not managed.  Costs no similarity evaluations."""
        cluster_index = self._by_url.pop(url, None)
        if cluster_index is None:
            return False
        cluster = self.clusters[cluster_index]
        cluster.pages = [page for page in cluster.pages if page.url != url]
        cluster.rebuild_centroid()
        self._cohesion_sum -= self._contrib.pop(url, 0.0)
        self.n_removed += 1
        return True

    def sizes(self) -> List[int]:
        return [cluster.size for cluster in self.clusters]

    # ----------------------------------------------------------------
    # Drift repair.
    # ----------------------------------------------------------------

    def recluster(self, max_iterations: Optional[int] = None) -> int:
        """Re-run batched k-means over every managed page, seeded with
        the *current* centroids — the drift repair a long-running
        directory performs when :attr:`needs_reclustering` turns on.

        Cheaper than the full pipeline (no re-crawl, no re-vectorize, no
        hub re-seeding): the pages keep their frozen-corpus vectors and
        the existing centroids are already close to a good solution, so
        the loop converges in a few iterations.  The number of clusters
        is preserved (emptied clusters keep their previous centroid, the
        k-means convention).  Re-syncs cohesion and resets the drift
        baseline to the repaired level.  Returns how many pages changed
        cluster.
        """
        pages = [
            page for cluster in self.clusters for page in cluster.pages
        ]
        if not pages:
            return 0
        old_assignment = dict(self._by_url)
        engine = SimilarityEngine(pages, self.similarity)
        result = engine.kmeans(
            self.centroid_pairs(),
            stop_fraction=self.config.stop_fraction,
            max_iterations=max_iterations or self.config.max_iterations,
        )
        self.similarity.stats.merge(engine.stats)
        assignment = [-1] * len(pages)
        for index, members in enumerate(result.clustering.clusters):
            for member in members:
                assignment[member] = index
        final_centroids = [
            VectorPair(pc=c.pc, fc=c.fc) for c in result.centroids
        ]
        return self._apply_assignment(
            pages, assignment, old_assignment, final_centroids
        )

    def _apply_assignment(
        self,
        pages: List[FormPage],
        assignment: List[int],
        old_assignment: Dict[str, int],
        final_centroids: List[VectorPair],
    ) -> int:
        """Rebuild cluster structure from a fresh page->cluster labeling."""
        moved = 0
        new_clusters: List[IncrementalCluster] = []
        self._by_url = {}
        members_of: List[List[FormPage]] = [
            [] for _ in range(len(final_centroids))
        ]
        for page, index in zip(pages, assignment):
            members_of[index].append(page)
        for index, members in enumerate(members_of):
            cluster = IncrementalCluster(pages=members)
            if cluster.pages:
                cluster.rebuild_centroid()
            else:
                # Emptied cluster: keep its final trained centroid so it
                # can win pages back later (keep-previous convention).
                final = final_centroids[index]
                cluster.centroid = VectorPair(pc=final.pc, fc=final.fc)
            new_clusters.append(cluster)
            for page in cluster.pages:
                self._by_url[page.url] = index
                if old_assignment.get(page.url) != index:
                    moved += 1
        self.clusters = new_clusters
        self.refresh_cohesion()
        self._baseline_cohesion = self.cohesion
        return moved
