"""The serving directory's retrieval state — combined vectors and
posting lists, generation-stamped.

:class:`DirectoryIndex` owns two row collections for a
:class:`~repro.service.directory.FormDirectory`:

* **clusters** — each cluster's combined ``PC + FC`` centroid vector
  (the thing ``/search`` scores queries against), computed once per
  centroid change and reused by every query instead of being
  re-materialized inside the read lock.
* **labels** — each cluster's descriptive terms, computed on the
  first read after its centroid changes and then served as-is (a
  tuple, so no caller can edit the shared copy).  Filling lazily keeps
  cold start flat; two readers racing to fill one slot compute the
  same value, so the race is harmless.
* **pages** — each managed page's combined vector, for
  ``/search?scope=pages``.  Page rows are keyed by a stable integer id
  (URLs map to ids) and survive re-clustering untouched: only cluster
  membership moves, and that is looked up live at query time.

Both collections carry posting lists, and every search goes through
them (:meth:`top_clusters` / :meth:`top_pages`).  Every mutation the
owning directory performs calls :meth:`sync_clusters` /
:meth:`page_upsert` / :meth:`page_remove` under the directory's write
lock and then stamps :attr:`generation` with the directory's new
generation, so the rows are current whenever a reader holds the read
lock; the stamp is reported in ``/healthz`` and pinned to the
directory's generation by ``tests/test_index.py``.

Parity: cached combined vectors are built by the same
``centroid.pc.add(centroid.fc)`` call a from-scratch scan uses
(``tests/oracle.py``'s ``scan_clusters`` / ``scan_pages``), so
their term dicts (and hence dot-product iteration order) are identical
— indexed and from-scratch scoring produce the same floats.  Queries
arrive as :class:`~repro.vsm.vector.KeywordQuery` objects, which never
intern the user's words, and are scored by its exact cosine.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.postings import SpaceIndex
from repro.index.retrieval import RetrievalStats, top_k_exact
from repro.vsm.vector import KeywordQuery, SparseVector, add_pairs


class DirectoryIndex:
    """Cluster + page retrieval rows for one serving directory.

    ``label_terms`` maps a centroid to its descriptive terms; the index
    caches its answer per centroid object.
    """

    def __init__(
        self, label_terms: Callable[[object], Sequence[str]]
    ) -> None:
        self._label_terms = label_terms
        self._clusters = SpaceIndex()
        self._pages = SpaceIndex()
        self._centroid_refs: List[object] = []
        self._labels: List[Optional[Tuple[str, ...]]] = []
        self._row_by_url: Dict[str, int] = {}
        self._url_by_row: Dict[int, str] = {}
        self._next_row = 0
        #: Directory generation these rows reflect (-1 = never synced).
        self.generation = -1
        self.stats = RetrievalStats()

    # ----------------------------------------------------------------
    # Introspection (metrics).
    # ----------------------------------------------------------------

    @property
    def n_cluster_postings(self) -> int:
        return self._clusters.n_postings

    @property
    def n_page_postings(self) -> int:
        return self._pages.n_postings

    @property
    def n_cluster_terms(self) -> int:
        return self._clusters.n_terms

    @property
    def n_page_terms(self) -> int:
        return self._pages.n_terms

    # ----------------------------------------------------------------
    # Maintenance (caller holds the directory write lock).
    # ----------------------------------------------------------------

    def rebuild(self, organizer, generation: int) -> None:
        """Full rebuild from ``organizer`` (cold start / repair).

        Each row collection is combined in one
        :func:`~repro.vsm.vector.add_pairs` pass and then indexed row by
        row, which leaves exactly the rows, posting lists and maxima
        that :meth:`sync_clusters` plus one :meth:`page_upsert` per page
        would.
        """
        clusters = organizer.clusters
        self._clusters.clear()
        self._pages.clear()
        self._centroid_refs = [cluster.centroid for cluster in clusters]
        self._labels = [None] * len(clusters)
        self._row_by_url = {}
        self._url_by_row = {}
        self._next_row = 0
        for index, vector in enumerate(add_pairs(
            [(cluster.centroid.pc, cluster.centroid.fc) for cluster in clusters]
        )):
            self._clusters.add_row(index, vector)
        pages = [page for cluster in clusters for page in cluster.pages]
        for page, vector in zip(pages, add_pairs(
            [(page.pc, page.fc) for page in pages]
        )):
            self._pages.add_row(self._row_of(page.url), vector)
        self.generation = generation

    def sync_clusters(self, organizer, generation: int) -> None:
        """Refresh rows for centroids whose object identity changed,
        then stamp ``generation``."""
        self._sync_cluster_rows(organizer)
        self.generation = generation

    def _sync_cluster_rows(self, organizer) -> None:
        clusters = organizer.clusters
        if len(clusters) != len(self._centroid_refs):
            self._clusters.clear()
            self._centroid_refs = [None] * len(clusters)
            self._labels = [None] * len(clusters)
        refs = self._centroid_refs
        for index, cluster in enumerate(clusters):
            centroid = cluster.centroid
            if refs[index] is not centroid:
                self._clusters.add_row(index, centroid.pc.add(centroid.fc))
                refs[index] = centroid
                self._labels[index] = None

    def _row_of(self, url: str) -> int:
        """The page row of ``url``, allocated on first sight."""
        row = self._row_by_url.get(url)
        if row is None:
            row = self._next_row
            self._next_row += 1
            self._row_by_url[url] = row
            self._url_by_row[row] = url
        return row

    def page_upsert(self, page) -> None:
        """(Re-)index one managed page's combined vector."""
        self._pages.add_row(self._row_of(page.url), page.pc.add(page.fc))

    def page_remove(self, url: str) -> None:
        row = self._row_by_url.pop(url, None)
        if row is not None:
            del self._url_by_row[row]
            self._pages.remove_row(row)

    # ----------------------------------------------------------------
    # Reads (caller holds the directory read lock).
    # ----------------------------------------------------------------

    def cluster_combined(self, index: int) -> SparseVector:
        """The cached combined centroid of cluster ``index``."""
        return self._clusters.vector(index)

    def cluster_labels(self, index: int, centroid) -> Tuple[str, ...]:
        """Descriptive terms of cluster ``index``, whose live centroid is
        ``centroid``.  Cached per centroid object; a centroid the rows
        were not synced to is labelled from scratch and not cached."""
        if index < len(self._centroid_refs) and (
            self._centroid_refs[index] is centroid
        ):
            labels = self._labels[index]
            if labels is None:
                labels = tuple(self._label_terms(centroid))
                self._labels[index] = labels
            return labels
        return tuple(self._label_terms(centroid))

    def top_clusters(
        self, query: KeywordQuery, k: int
    ) -> List[Tuple[int, float]]:
        """Exact top-``k`` clusters by combined-centroid cosine."""
        clusters = self._clusters
        return top_k_exact(
            clusters, query.vector, k,
            lambda row: query.cosine(clusters.vector(row)),
            stats=self.stats, norm=query.norm,
        )

    def top_pages(
        self, query: KeywordQuery, k: int
    ) -> List[Tuple[int, float]]:
        """Exact top-``k`` page rows, URL-tie-broken like the scan."""
        pages = self._pages
        return top_k_exact(
            pages, query.vector, k,
            lambda row: query.cosine(pages.vector(row)),
            stats=self.stats, norm=query.norm,
            tie_key=self._url_by_row.__getitem__,
        )

    def page_vector(self, row: int) -> SparseVector:
        return self._pages.vector(row)

    def page_url(self, row: int) -> str:
        return self._url_by_row[row]


__all__ = ["DirectoryIndex"]
