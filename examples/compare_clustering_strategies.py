"""Compare clustering strategies on the paper's benchmark corpus.

Runs the four strategies of the paper's Table 2 — CAFC-C and CAFC-CH,
each over k-means and HAC — on the full 454-page benchmark, and scores
them with the paper's metrics (entropy, F-measure) plus purity, NMI and
adjusted Rand index.

Run:  python examples/compare_clustering_strategies.py   (takes ~1 min)
"""

import statistics

from repro.clustering.hac import Linkage, hac
from repro.core import CAFCConfig, FormPageSimilarity, cafc_c, cafc_ch
from repro.core.vectorizer import FormPageVectorizer
from repro.eval import (
    adjusted_rand_index,
    normalized_mutual_information,
    overall_f_measure,
    purity,
    total_entropy,
)
from repro.webgen import generate_benchmark


def score(clustering, gold):
    return {
        "entropy": total_entropy(clustering, gold),
        "F": overall_f_measure(clustering, gold),
        "purity": purity(clustering, gold),
        "NMI": normalized_mutual_information(clustering, gold),
        "ARI": adjusted_rand_index(clustering, gold),
    }


def print_row(name, metrics):
    cells = "  ".join(f"{key}={value:.3f}" for key, value in metrics.items())
    print(f"{name:<28} {cells}")


def main() -> None:
    print("generating the 454-page benchmark corpus ...")
    web = generate_benchmark(seed=42)
    pages = FormPageVectorizer().fit_transform(web.raw_pages())
    gold = [page.label for page in pages]
    config = CAFCConfig(k=8)

    print("running CAFC-C (average of 10 random-seed runs) ...")
    runs = [cafc_c(pages, CAFCConfig(k=8, seed=s)) for s in range(10)]
    mean_metrics = {
        key: statistics.mean(score(run.clustering, gold)[key] for run in runs)
        for key in ("entropy", "F", "purity", "NMI", "ARI")
    }

    print("running CAFC-CH (hub-seeded) ...")
    ch = cafc_ch(pages, config)

    print("running HAC (average linkage, cut at k=8) ...")
    matrix = FormPageSimilarity.from_config(config).pairwise(pages)
    hac_result = hac(matrix, 8, Linkage.AVERAGE)

    print()
    print_row("CAFC-C (k-means, random)", mean_metrics)
    print_row("CAFC-CH (k-means, hubs)", score(ch.clustering, gold))
    print_row("HAC (content only)", score(hac_result.clustering, gold))

    print("\nhub-phase details for CAFC-CH:")
    print(f"  hub clusters after pruning: {len(ch.hub_clusters)}")
    print(f"  seeds selected (Algorithm 3): "
          f"{[seed.cardinality for seed in ch.selected_seeds]} pages each")


if __name__ == "__main__":
    main()
