"""repro.index — sparse inverted-index retrieval over the feature spaces.

Exact top-k without full scans: per-term posting lists with
pre-normalized weights (:mod:`~repro.index.postings`), term-at-a-time
accumulation with an exact rescore of the rows within a rounding window
of the k-th best partial (:mod:`~repro.index.retrieval`), and the
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
from repro.index.postings import SpaceIndex
from repro.index.retrieval import RetrievalStats, top_k_exact

__all__ = [
    "DirectoryIndex",
    "RetrievalStats",
    "SpaceIndex",
    "assert_sorted",
    "cluster_hit_key",
    "merge_ranked",
    "page_hit_key",
    "top_k_exact",
]

