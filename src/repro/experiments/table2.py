"""Table 2 — HAC versus k-means as the base clustering strategy.

Paper values:

    measure    CAFC-C(kmeans)  CAFC-C(HAC)   CAFC-CH(kmeans)  CAFC-CH(HAC)
    entropy    0.56            0.52          0.15             0.37
    F-measure  0.74            0.75          0.96             0.87

Shape claims:

1. hubs improve homogeneity regardless of the base strategy
   (CAFC-CH(x) < CAFC-C(x) in entropy for both x);
2. with hubs, k-means clearly beats HAC (the paper: entropy less than
   half) because HAC's local merge decisions propagate early mistakes.
"""

import statistics
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.clustering.hac import Linkage, hac, hac_from_groups
from repro.core.cafc_c import cafc_c
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import render_table

PAPER_VALUES = {
    ("cafc-c", "kmeans"): (0.56, 0.74),
    ("cafc-c", "hac"): (0.52, 0.75),
    ("cafc-ch", "kmeans"): (0.15, 0.96),
    ("cafc-ch", "hac"): (0.37, 0.87),
}


@dataclass
class Table2Cell:
    algorithm: str      # 'cafc-c' | 'cafc-ch'
    strategy: str       # 'kmeans' | 'hac'
    entropy: float
    f_measure: float


@dataclass
class Table2Result:
    cells: List[Table2Cell]
    linkage: Linkage

    def get(self, algorithm: str, strategy: str) -> Table2Cell:
        for cell in self.cells:
            if cell.algorithm == algorithm and cell.strategy == strategy:
                return cell
        raise KeyError((algorithm, strategy))


def _disjoint_hub_groups(
    clusters, pages, similarity, drop_fraction: float = 0.6
) -> List[List[int]]:
    """Hub clusters as disjoint index groups for HAC seeding.

    Two content-reinforcement steps before handing groups to HAC:

    * the loosest ``drop_fraction`` of clusters (directories) is dropped —
      aggressively, because HAC can never undo a heterogeneous initial
      group the way k-means reassignment can;
    * surviving clusters claim pages tightest-first, so a page co-cited
      by both a domain hub and a directory lands with the domain hub.
    """
    from repro.link_analysis.hub_quality import score_hub_clusters

    scored = score_hub_clusters(clusters, pages, similarity)
    keep = max(1, int(round(len(scored) * (1.0 - drop_fraction))))
    assigned: set = set()
    groups: List[List[int]] = []
    for quality in scored[:keep]:
        group = [i for i in quality.cluster.members if i not in assigned]
        assigned.update(group)
        if group:
            groups.append(group)
    return groups


def run_table2(
    context: ExperimentContext,
    linkage: Linkage = Linkage.AVERAGE,
    n_kmeans_runs: int = 20,
    matrix: Optional[np.ndarray] = None,
) -> Table2Result:
    """Reproduce Table 2 (all four algorithm x strategy cells).

    ``matrix`` lets callers reuse a precomputed pairwise similarity
    matrix (it is the dominant cost).
    """
    pages, gold = context.pages, context.gold_labels
    similarity = context.similarity
    cells: List[Table2Cell] = []

    # CAFC-C (k-means): average of random-seed runs.
    entropies, f_measures = [], []
    for run_seed in range(n_kmeans_runs):
        result = cafc_c(pages, CAFCConfig(k=8, seed=run_seed))
        entropies.append(total_entropy(result.clustering, gold))
        f_measures.append(overall_f_measure(result.clustering, gold))
    cells.append(
        Table2Cell(
            "cafc-c", "kmeans",
            statistics.mean(entropies), statistics.mean(f_measures),
        )
    )

    if matrix is None:
        matrix = context.similarity_matrix()

    # CAFC-C (HAC): plain agglomeration cut at k.
    hac_result = hac(matrix, n_clusters=8, linkage=linkage)
    cells.append(
        Table2Cell(
            "cafc-c", "hac",
            total_entropy(hac_result.clustering, gold),
            overall_f_measure(hac_result.clustering, gold),
        )
    )

    # CAFC-CH (k-means): hub-seeded k-means.
    hub_clusters = context.hub_clusters(context.config.min_hub_cardinality)
    ch_result = cafc_ch(pages, CAFCConfig(k=8), hub_clusters=hub_clusters)
    cells.append(
        Table2Cell(
            "cafc-ch", "kmeans",
            total_entropy(ch_result.clustering, gold),
            overall_f_measure(ch_result.clustering, gold),
        )
    )

    # CAFC-CH (HAC): quality-filtered hub clusters as the initial
    # agglomeration state (see _disjoint_hub_groups for why the filter
    # must be aggressive for HAC specifically).
    groups = _disjoint_hub_groups(hub_clusters, pages, similarity)
    seeded_hac = hac_from_groups(matrix, groups, n_clusters=8, linkage=linkage)
    cells.append(
        Table2Cell(
            "cafc-ch", "hac",
            total_entropy(seeded_hac.clustering, gold),
            overall_f_measure(seeded_hac.clustering, gold),
        )
    )
    return Table2Result(cells=cells, linkage=linkage)


def check_shape(result: Table2Result) -> List[str]:
    """Violated shape claims (empty = all hold)."""
    violations: List[str] = []
    for strategy in ("kmeans", "hac"):
        if (
            result.get("cafc-ch", strategy).entropy
            > result.get("cafc-c", strategy).entropy
        ):
            violations.append(f"hubs did not improve the {strategy} strategy")
    ch_kmeans = result.get("cafc-ch", "kmeans").entropy
    ch_hac = result.get("cafc-ch", "hac").entropy
    if ch_kmeans > ch_hac:
        violations.append("with hubs, k-means did not beat HAC")
    return violations


def format_table2(result: Table2Result) -> str:
    rows = []
    for cell in result.cells:
        paper_e, paper_f = PAPER_VALUES[(cell.algorithm, cell.strategy)]
        rows.append(
            [
                cell.algorithm.upper(),
                cell.strategy,
                f"{paper_e:.2f}",
                f"{cell.entropy:.3f}",
                f"{paper_f:.2f}",
                f"{cell.f_measure:.3f}",
            ]
        )
    return render_table(
        ["algorithm", "strategy", "E(paper)", "E(ours)", "F(paper)", "F(ours)"],
        rows,
        title=f"Table 2: HAC vs k-means ({result.linkage.value} linkage)",
    )
