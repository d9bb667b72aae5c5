"""A/B benchmark: the batched similarity engine vs the per-pair oracle.

Three claims, all on the paper-scale corpus (and a 4x-scaled one):

* the engine is at least 3x faster than the per-pair Equation-3 oracle
  on all-pairs similarity;
* the two agree to 1e-12 on every pair (the mismatch gate);
* CAFC-C and CAFC-CH produce *identical* cluster assignments (and hence
  identical entropy / F-measure) to the oracle's generic k-means.

Timings use best-of-N on both sides: single-shot wall clocks on a busy
machine swing by tens of percent, and the minimum over a few runs is the
standard way to estimate the code's actual cost.
"""

import random
import time

import pytest

from repro.core.cafc_c import cafc_c, random_seed_centroids
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.seeds import select_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.webgen.config import GeneratorConfig
from repro.webgen.corpus import generate_benchmark
from tests.oracle import NaiveBackend, max_abs_diff, oracle_kmeans

TOLERANCE = 1e-12
REQUIRED_SPEEDUP = 3.0
TIMING_ROUNDS = 3


def best_of(fn, rounds: int = TIMING_ROUNDS) -> float:
    """Minimum wall-clock over ``rounds`` runs."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_engine_vs_naive_pairwise(benchmark, context):
    """Engine >= 3x the oracle on the 454-page corpus, 1e-12 parity."""
    pages = context.pages
    config = CAFCConfig(k=8)

    naive = NaiveBackend.from_config(config)
    reference = naive.pairwise(pages)

    # A fresh backend per round so compile time is charged to the engine
    # (no cached-engine advantage).
    def engine_run():
        return FormPageSimilarity.from_config(config).pairwise(pages)

    compiled = benchmark.pedantic(engine_run, rounds=1, iterations=1)
    parity = max_abs_diff(reference, compiled)
    assert parity <= TOLERANCE, f"engine/oracle mismatch: {parity:.3e}"

    naive_time = best_of(lambda: NaiveBackend.from_config(config).pairwise(pages))
    engine_time = best_of(engine_run)
    speedup = naive_time / engine_time
    print(
        f"\n[454 pages] oracle {naive_time:.3f}s  engine {engine_time:.3f}s  "
        f"speedup {speedup:.2f}x  parity {parity:.2e}"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"engine only {speedup:.2f}x over the oracle "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


@pytest.fixture(scope="module")
def scaled_pages():
    """A 4x-scaled corpus (~1800 pages) for the scaling data point."""
    base = GeneratorConfig()
    config = GeneratorConfig(
        pages_per_domain={
            name: count * 4 for name, count in base.pages_per_domain.items()
        },
        seed=42,
    )
    web = generate_benchmark(config=config)
    return FormPageVectorizer().fit_transform(web.raw_pages())


def test_bench_engine_scaling_4x(benchmark, scaled_pages):
    """On the 4x corpus the oracle side is extrapolated from a pair
    sample (the full quadratic run is what the engine exists to avoid)."""
    pages = scaled_pages
    n = len(pages)
    assert n >= 4 * 400, f"scaled corpus unexpectedly small: {n}"
    config = CAFCConfig(k=8)

    def engine_run():
        return FormPageSimilarity.from_config(config).pairwise(pages)

    compiled = benchmark.pedantic(engine_run, rounds=1, iterations=1)
    engine_time = best_of(engine_run, rounds=2)

    rng = random.Random(0)
    sample = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(40_000)
    ]
    naive = NaiveBackend.from_config(config)

    def naive_sample():
        for i, j in sample:
            naive(pages[i], pages[j])

    sample_time = best_of(naive_sample, rounds=2)
    naive_estimate = sample_time / len(sample) * (n * n)
    speedup = naive_estimate / engine_time
    print(
        f"\n[{n} pages] engine {engine_time:.3f}s  "
        f"oracle-extrapolated {naive_estimate:.1f}s  speedup {speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP

    # Spot parity on the scaled corpus: the sampled off-diagonal pairs.
    worst = max(
        abs(compiled[i, j] - naive(pages[i], pages[j]))
        for i, j in sample[:500]
        if i != j
    )
    assert worst <= TOLERANCE, f"engine/oracle mismatch at scale: {worst:.3e}"


def test_bench_clustering_parity_across_backends(benchmark, context):
    """cafc_c and cafc_ch give the oracle's assignments — and therefore
    identical entropy / F-measure."""
    pages = context.pages
    gold = [page.label for page in pages]
    config = CAFCConfig(k=8)
    hub_clusters = context.hub_clusters(8)

    def engine_side():
        return (
            cafc_c(pages, CAFCConfig(k=8, seed=0)),
            cafc_ch(pages, config, hub_clusters=hub_clusters),
        )

    engine_c, engine_ch = benchmark.pedantic(engine_side, rounds=1, iterations=1)
    naive_c = oracle_kmeans(
        pages, random_seed_centroids(pages, 8, random.Random(0)), config
    )
    naive_seeds = select_hub_clusters(
        hub_clusters, 8, similarity=NaiveBackend.from_config(config)
    )
    naive_ch = oracle_kmeans(pages, [c.centroid for c in naive_seeds], config)

    for engine_result, naive_result in (
        (engine_c, naive_c), (engine_ch, naive_ch),
    ):
        assert (
            engine_result.clustering.clusters == naive_result.clustering.clusters
        ), "engine and oracle disagree on cluster assignments"
        assert total_entropy(engine_result.clustering, gold) == total_entropy(
            naive_result.clustering, gold
        )
        assert overall_f_measure(engine_result.clustering, gold) == (
            overall_f_measure(naive_result.clustering, gold)
        )
    print(
        f"\nCAFC-C  entropy {total_entropy(engine_c.clustering, gold):.3f}  "
        f"F {overall_f_measure(engine_c.clustering, gold):.3f} (engine = oracle)"
        f"\nCAFC-CH entropy {total_entropy(engine_ch.clustering, gold):.3f}  "
        f"F {overall_f_measure(engine_ch.clustering, gold):.3f} (engine = oracle)"
    )
