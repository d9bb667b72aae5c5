"""Benchmark: Section-6 extension ablations.

The paper's future-work list names two link-structure features: anchor
text and hub-page quality.  These ablations measure both on the
benchmark corpus:

* **anchor text** — CAFC-CH with anchor strings folded into PC vs
  without;
* **quality-aware seed selection** — Algorithm 3 with a tightness
  pre-filter vs plain, at high cardinality thresholds where
  heterogeneous directories dominate the candidate pool (the failure
  region on the right edge of Figure 3).
"""

from repro.core.cafc_ch import cafc_ch
from repro.core.cafc_c import cafc_c
from repro.core.config import CAFCConfig
from repro.core.hubs import build_hub_clusters
from repro.core.seeds import select_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.experiments.reporting import render_table
from repro.link_analysis import select_hub_clusters_quality_aware


def test_bench_anchor_text(benchmark, context):
    """Anchor-text ablation: does the extension keep quality at least?"""
    def run():
        raw = context.web.raw_pages(include_anchor_text=True)
        pages = FormPageVectorizer().fit_transform(raw)
        return pages

    pages_anchor = benchmark.pedantic(run, rounds=1, iterations=1)
    gold = context.gold_labels

    baseline = cafc_ch(context.pages, CAFCConfig(k=8),
                       hub_clusters=context.hub_clusters(8))
    hub_clusters = build_hub_clusters(pages_anchor, min_cardinality=8)
    augmented = cafc_ch(pages_anchor, CAFCConfig(k=8), hub_clusters=hub_clusters)

    rows = [
        ["without anchors",
         f"{total_entropy(baseline.clustering, gold):.3f}",
         f"{overall_f_measure(baseline.clustering, gold):.3f}"],
        ["with anchors",
         f"{total_entropy(augmented.clustering, gold):.3f}",
         f"{overall_f_measure(augmented.clustering, gold):.3f}"],
    ]
    print()
    print(render_table(["configuration", "entropy", "F-measure"], rows,
                       title="Ablation: anchor-text features (Section 6)"))

    # Anchor text must not degrade the clustering materially.
    assert total_entropy(augmented.clustering, gold) <= (
        total_entropy(baseline.clustering, gold) + 0.05
    )


def test_bench_quality_aware_seeds(benchmark, context):
    """Tightness-filtered Algorithm 3 at directory-dominated thresholds."""
    similarity = FormPageSimilarity.from_config(context.config)
    pages, gold = context.pages, context.gold_labels

    def sweep():
        results = []
        for threshold in (9, 10, 11):
            hub_clusters = context.hub_clusters(threshold)
            if len(hub_clusters) < 8:
                continue
            plain_seeds = select_hub_clusters(
                hub_clusters, 8,
                similarity=FormPageSimilarity.from_config(context.config),
            )
            quality_seeds = select_hub_clusters_quality_aware(
                hub_clusters, 8, pages, similarity, drop_fraction=0.25
            )
            plain = cafc_c(
                pages, CAFCConfig(k=8),
                seed_centroids=[c.centroid for c in plain_seeds],
            )
            quality = cafc_c(
                pages, CAFCConfig(k=8),
                seed_centroids=[c.centroid for c in quality_seeds],
            )
            results.append(
                (
                    threshold,
                    total_entropy(plain.clustering, gold),
                    total_entropy(quality.clustering, gold),
                )
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [f">{threshold - 1}", f"{plain:.3f}", f"{quality:.3f}"]
        for threshold, plain, quality in results
    ]
    print()
    print(render_table(
        ["min card", "plain Algorithm 3", "quality-aware"],
        rows,
        title="Ablation: tightness-filtered seed selection (Section 6)",
    ))

    # On average over the hostile thresholds, quality filtering must not
    # hurt, and should help somewhere.
    mean_plain = sum(p for _, p, _ in results) / len(results)
    mean_quality = sum(q for _, _, q in results) / len(results)
    assert mean_quality <= mean_plain + 0.02
