"""repro.index — exact top-k retrieval over the served rows.

Exact top-k without full scans: pre-normalized postings — packed
term-major arrays with tombstones and a small write delta for pages
(:mod:`~repro.index.postings`) — and one compiled block over the k
combined centroids for clusters, each giving approximate partials
that pick the rows within a rounding window of the k-th best for an
exact rescore (:mod:`~repro.index.retrieval`), and the
generation-stamped directory state behind ``/search``
(:mod:`~repro.index.directory_index`).

Results are parity-pinned against full-scan reference rankings — same
ids, same floats, same order.  See docs/SERVING.md ("Indexed
retrieval").
"""

from repro.index.directory_index import DirectoryIndex
from repro.index.merge import (
    assert_sorted,
    cluster_hit_key,
    merge_ranked,
    page_hit_key,
)
from repro.index.postings import PagePostings, SpaceIndex
from repro.index.retrieval import CentroidRows, RetrievalStats, top_k_exact

__all__ = [
    "CentroidRows",
    "DirectoryIndex",
    "PagePostings",
    "RetrievalStats",
    "SpaceIndex",
    "assert_sorted",
    "cluster_hit_key",
    "merge_ranked",
    "page_hit_key",
    "top_k_exact",
]

