"""Robustness sweep: CAFC-CH under degrading backlink coverage.

Not a paper table — an ablation DESIGN.md calls for.  The paper's hub
evidence comes from a search-engine ``link:`` API that is *known
incomplete* ("backlink information is readily available, [but] it is
very incomplete", Section 3.1).  This sweep quantifies how CAFC-CH
degrades as the engine's index coverage shrinks, and verifies the
designed failure mode: when too few hub clusters survive, CAFC-CH falls
back to content-only clustering rather than crashing.
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.cafc_c import cafc_c
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.vectorizer import FormPageVectorizer
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import render_table
from repro.webgraph.search_api import SimulatedSearchEngine


@dataclass
class RobustnessPoint:
    coverage: float
    n_hub_clusters: int
    entropy: float
    f_measure: float
    fell_back: bool


@dataclass
class RobustnessResult:
    points: List[RobustnessPoint]
    min_hub_cardinality: int


def run_robustness(
    context: ExperimentContext,
    coverages: Sequence[float] = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.0),
    min_hub_cardinality: int = 8,
) -> RobustnessResult:
    """Sweep engine coverage; cluster with CAFC-CH (CAFC-C fallback)."""
    from repro.core.hubs import build_hub_clusters

    gold = context.gold_labels
    web = context.web
    points: List[RobustnessPoint] = []
    for coverage in coverages:
        raw = web.raw_pages(
            engine=SimulatedSearchEngine(
                web.graph,
                coverage=coverage,
                max_results=web.config.max_backlinks,
                seed=web.config.engine_seed,
            )
        )
        pages = FormPageVectorizer().fit_transform(raw)
        hub_clusters = build_hub_clusters(pages, min_cardinality=min_hub_cardinality)
        fell_back = False
        try:
            result = cafc_ch(
                pages, CAFCConfig(k=8, min_hub_cardinality=min_hub_cardinality),
                hub_clusters=hub_clusters,
            )
            clustering = result.clustering
        except ValueError:
            fell_back = True
            clustering = cafc_c(pages, CAFCConfig(k=8, seed=0)).clustering
        points.append(
            RobustnessPoint(
                coverage=coverage,
                n_hub_clusters=len(hub_clusters),
                entropy=total_entropy(clustering, gold),
                f_measure=overall_f_measure(clustering, gold),
                fell_back=fell_back,
            )
        )
    return RobustnessResult(points=points, min_hub_cardinality=min_hub_cardinality)


def check_shape(result: RobustnessResult) -> List[str]:
    """Expected robustness properties (empty = all hold)."""
    violations: List[str] = []
    points = result.points
    full = next((p for p in points if p.coverage >= 0.9), None)
    zero = next((p for p in points if p.coverage == 0.0), None)
    if full and full.fell_back:
        violations.append("fell back to CAFC-C at full coverage")
    if zero and not zero.fell_back:
        violations.append("did not fall back with zero backlink coverage")
    # Hub-cluster counts must be monotone non-increasing with coverage.
    ordered = sorted(points, key=lambda p: -p.coverage)
    counts = [p.n_hub_clusters for p in ordered]
    if any(a < b for a, b in zip(counts, counts[1:])):
        violations.append("hub-cluster count not monotone in coverage")
    return violations


def format_robustness(result: RobustnessResult) -> str:
    rows = [
        [
            f"{point.coverage:.0%}",
            point.n_hub_clusters,
            f"{point.entropy:.3f}",
            f"{point.f_measure:.3f}",
            "yes" if point.fell_back else "",
        ]
        for point in result.points
    ]
    return render_table(
        ["engine coverage", "hub clusters", "entropy", "F", "CAFC-C fallback"],
        rows,
        title="Robustness: CAFC-CH vs backlink-index coverage",
    )
