"""Hub clusters: sets of form pages co-cited by a hub page (Section 3).

The hub-cluster pipeline, as the paper describes it:

1. Every backlink URL of every form page is a candidate hub.  Grouping
   form pages by shared backlink yields the raw *hub clusters* ("3,450
   distinct sets of pages that are co-cited by a hub").
2. Intra-site hubs — backlinks on the same site as the page they point to
   — "do not add much information about the topic" and are dropped.
3. Hub clusters below a minimum cardinality are pruned (Figure 3 sweeps
   this threshold; the headline configuration uses 8), which both removes
   unreliable evidence and shrinks the greedy-selection search space
   (3,450 -> 164 in the paper).

Each surviving hub cluster carries an Equation-4 centroid over its member
pages, ready for Algorithm 3's distance computations and for seeding
k-means.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.webgraph.urls import site_of


@dataclass
class HubCluster:
    """A set of form pages co-cited by one hub.

    ``members`` are indices into the form-page sequence the cluster was
    built from; ``centroid`` is the per-space mean vector (Equation 4).
    """

    hub_url: str
    members: List[int]
    centroid: VectorPair

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def member_labels(self, pages: Sequence[FormPage]) -> List[str]:
        """Gold labels of the member pages (evaluation only)."""
        return [pages[i].label or "?" for i in self.members]

    def is_homogeneous(self, pages: Sequence[FormPage]) -> bool:
        """True when every member page shares one gold label."""
        labels = {pages[i].label for i in self.members}
        return len(labels) == 1


def group_by_hub(
    pages: Sequence[FormPage],
    drop_intra_site: bool = True,
) -> Dict[str, FrozenSet[int]]:
    """Group form-page indices by shared backlink URL.

    Returns hub URL -> co-cited page-index set.  With ``drop_intra_site``
    (the paper's behaviour) a backlink is ignored for a page on the same
    site, so purely navigational hubs never form clusters.
    """
    co_cited: Dict[str, set] = {}
    # Each distinct backlink's site, parsed once per call.
    sites: Dict[str, str] = {}
    for index, page in enumerate(pages):
        page_site = site_of(page.url) if drop_intra_site else ""
        for backlink in page.backlinks:
            if drop_intra_site:
                site = sites.get(backlink)
                if site is None:
                    site = sites[backlink] = site_of(backlink)
                if site and site == page_site:
                    continue
            co_cited.setdefault(backlink, set()).add(index)
    return {hub: frozenset(members) for hub, members in co_cited.items()}


def build_hub_clusters(
    pages: Sequence[FormPage],
    min_cardinality: int = 1,
    drop_intra_site: bool = True,
    deduplicate: bool = True,
) -> List[HubCluster]:
    """Build hub clusters over ``pages`` (steps 1-3 above).

    Parameters
    ----------
    pages:
        The vectorized form pages (backlinks included).
    min_cardinality:
        Keep only clusters with at least this many member pages.
    drop_intra_site:
        Ignore backlinks from the page's own site.
    deduplicate:
        Distinct hubs frequently co-cite the *same* page set (mirrored
        directory pages).  Deduplicating by member set keeps the greedy
        selection from wasting picks on identical centroids.  The count of
        *distinct sets* is what the paper reports (3,450).

    Returns
    -------
    list of HubCluster, largest first (ties broken by hub URL for
    determinism).
    """
    grouped = group_by_hub(pages, drop_intra_site=drop_intra_site)

    qualifying: List[tuple] = []
    seen_member_sets: set = set()
    for hub_url in sorted(grouped):
        members = grouped[hub_url]
        if len(members) < min_cardinality:
            continue
        if deduplicate:
            if members in seen_member_sets:
                continue
            seen_member_sets.add(members)
        qualifying.append((hub_url, members))

    clusters = [
        HubCluster(
            hub_url=hub_url,
            members=sorted(members),
            centroid=centroid_of([pages[i] for i in members]),
        )
        for hub_url, members in qualifying
    ]
    clusters.sort(key=lambda c: (-c.cardinality, c.hub_url))
    return clusters


def backlink_coverage(pages: Sequence[FormPage]) -> float:
    """Fraction of pages with at least one backlink — the paper's
    harvest-quality number (they saw ~85% from AltaVista; a collapse
    toward 0 means hub evidence is gone and CAFC-CH seeding should
    yield to CAFC-C's random seeding).  Returns 0.0 for no pages."""
    if not pages:
        return 0.0
    covered = sum(1 for page in pages if page.backlinks)
    return covered / len(pages)


def homogeneity_rate(
    clusters: Sequence[HubCluster], pages: Sequence[FormPage]
) -> float:
    """Fraction of hub clusters whose members share one gold label.

    The paper reports 69% over its 3,450 raw clusters (Section 3.1).
    Returns 0.0 for an empty cluster list.
    """
    if not clusters:
        return 0.0
    homogeneous = sum(1 for c in clusters if c.is_homogeneous(pages))
    return homogeneous / len(clusters)
