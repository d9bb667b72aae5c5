"""Section 3.1 — backlink and hub-cluster statistics.

Paper numbers:

* up to 100 backlinks extracted per form page;
* AltaVista returned no backlinks for over 15% of the forms;
* 3,450 distinct co-cited page sets (hub clusters);
* 69% of the hub clusters are homogeneous (single domain);
* there are representative homogeneous hub clusters in all domains;
* pruning small clusters (min cardinality 8) shrinks 3,450 -> 164;
* hub clusters with >= 14 pages only contain Airfare and Hotel forms.

The absolute cluster counts depend on corpus scale (our synthetic hub
layer is smaller than the open web's); the ratios and qualitative claims
are what must hold.
"""

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.hubs import homogeneity_rate
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import render_table
from repro.webgraph.urls import site_of


@dataclass
class HubStatsResult:
    n_form_pages: int
    n_pages_without_backlinks: int       # no inter-site backlink harvested
    n_raw_hub_clusters: int
    raw_homogeneity: float
    domains_with_homogeneous_clusters: Set[str]
    all_domains: Set[str]
    n_pruned_hub_clusters: int           # at the headline threshold (8)
    large_cluster_domains: Set[str]      # domains seen in clusters >= 14

    @property
    def fraction_without_backlinks(self) -> float:
        if self.n_form_pages == 0:
            return 0.0
        return self.n_pages_without_backlinks / self.n_form_pages


def run_hubstats(context: ExperimentContext) -> HubStatsResult:
    """Compute the Section 3.1 statistics over the benchmark corpus."""
    pages = context.pages

    # A page counts as without backlinks when every one is intra-site.
    # Each page and each distinct backlink is parsed once per call.
    n_without = 0
    sites: Dict[str, str] = {}
    for raw in context.raw_pages:
        page_site = site_of(raw.url)
        for backlink in raw.backlinks:
            site = sites.get(backlink)
            if site is None:
                site = sites[backlink] = site_of(backlink)
            if not site or site != page_site:
                break
        else:
            n_without += 1

    raw_clusters = context.raw_hub_clusters
    homogeneous_domains: Set[str] = set()
    for cluster in raw_clusters:
        if cluster.is_homogeneous(pages):
            homogeneous_domains.add(pages[cluster.members[0]].label or "?")

    large_domains: Set[str] = set()
    for cluster in raw_clusters:
        if cluster.cardinality >= 14:
            large_domains.update(cluster.member_labels(pages))

    pruned = context.hub_clusters(context.config.min_hub_cardinality)

    return HubStatsResult(
        n_form_pages=len(pages),
        n_pages_without_backlinks=n_without,
        n_raw_hub_clusters=len(raw_clusters),
        raw_homogeneity=homogeneity_rate(raw_clusters, pages),
        domains_with_homogeneous_clusters=homogeneous_domains,
        all_domains=set(context.gold_labels),
        n_pruned_hub_clusters=len(pruned),
        large_cluster_domains=large_domains,
    )


def check_shape(result: HubStatsResult) -> List[str]:
    """Violated Section 3.1 claims (empty = all hold)."""
    violations: List[str] = []
    if not 0.10 <= result.fraction_without_backlinks <= 0.30:
        violations.append(
            f"backlink-less fraction {result.fraction_without_backlinks:.2f} "
            "far from the paper's >15%"
        )
    if not 0.55 <= result.raw_homogeneity <= 0.85:
        violations.append(
            f"hub-cluster homogeneity {result.raw_homogeneity:.2f} far from 69%"
        )
    if result.domains_with_homogeneous_clusters != result.all_domains:
        missing = result.all_domains - result.domains_with_homogeneous_clusters
        violations.append(f"domains without homogeneous hub clusters: {missing}")
    if result.n_pruned_hub_clusters >= result.n_raw_hub_clusters:
        violations.append("pruning did not shrink the hub-cluster set")
    extra = result.large_cluster_domains - {"airfare", "hotel"}
    if extra:
        violations.append(f"large (>=14) hub clusters contain extra domains: {extra}")
    return violations


def format_hubstats(result: HubStatsResult) -> str:
    rows = [
        ["form pages", 454, result.n_form_pages],
        [
            "pages without backlinks",
            ">15%",
            f"{result.n_pages_without_backlinks} "
            f"({result.fraction_without_backlinks:.0%})",
        ],
        ["raw hub clusters", 3450, result.n_raw_hub_clusters],
        ["homogeneous fraction", "69%", f"{result.raw_homogeneity:.0%}"],
        [
            "domains with homogeneous clusters",
            "all 8",
            len(result.domains_with_homogeneous_clusters),
        ],
        ["clusters after pruning (>=8)", 164, result.n_pruned_hub_clusters],
        [
            "domains in clusters >= 14",
            "Air, Hotel",
            ", ".join(sorted(result.large_cluster_domains)) or "(none)",
        ],
    ]
    return render_table(
        ["statistic", "paper", "ours"],
        rows,
        title="Section 3.1: backlink / hub-cluster statistics",
    )
