"""Benchmark: corpus-size scaling of the full CAFC pipeline.

The paper's pitch is scalability ("the Web is estimated to contain
millions of online databases"), so this bench measures how the pipeline
cost and quality behave as the corpus grows, and compares the scalar
all-pairs similarity loop with the compiled engine's matrix.
"""

import time

import numpy as np

from repro.clustering.hac import similarity_matrix
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine
from repro.core.vectorizer import FormPageVectorizer
from repro.eval.fmeasure import overall_f_measure
from repro.experiments.reporting import render_table
from repro.webgen.config import GeneratorConfig
from repro.webgen.corpus import generate_benchmark


def _scaled_config(per_domain: int, seed: int = 9) -> GeneratorConfig:
    return GeneratorConfig(
        pages_per_domain={
            name: per_domain
            for name in ("airfare", "auto", "book", "hotel",
                         "job", "movie", "music", "rental")
        },
        single_attribute_per_domain=max(1, per_domain // 8),
        mixed_entertainment_pages=2,
        small_hubs_per_domain=max(4, per_domain // 2),
        medium_hubs_per_domain=max(2, per_domain // 8),
        n_directories=max(8, per_domain * 2),
        n_travel_portals=2,
        seed=seed,
    )


def test_bench_pipeline_scaling(benchmark):
    sizes = (8, 16, 32)  # pages per domain -> 64 / 128 / 256 total

    def sweep():
        rows = []
        for per_domain in sizes:
            web = generate_benchmark(config=_scaled_config(per_domain))
            raw = web.raw_pages()
            started = time.perf_counter()
            pages = FormPageVectorizer().fit_transform(raw)
            result = cafc_ch(
                pages, CAFCConfig(k=8, min_hub_cardinality=3)
            )
            elapsed = time.perf_counter() - started
            gold = [page.label for page in pages]
            rows.append(
                (
                    len(pages),
                    elapsed,
                    overall_f_measure(result.clustering, gold),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["corpus size", "vectorize+cluster (s)", "F-measure"],
        [[n, f"{t:.2f}", f"{f:.3f}"] for n, t, f in rows],
        title="Pipeline scaling with corpus size",
    ))
    # Quality must not collapse with scale.
    assert all(f > 0.8 for _, _, f in rows)
    # Cost must grow sub-cubically across the 4x size range.
    small_n, small_t, _ = rows[0]
    large_n, large_t, _ = rows[-1]
    assert large_t / small_t < (large_n / small_n) ** 3


def test_bench_batch_similarity_speedup(benchmark, context):
    pages = context.pages[:200]

    started = time.perf_counter()
    scalar = similarity_matrix(pages, FormPageSimilarity())
    scalar_time = time.perf_counter() - started

    def engine_matrix():
        return SimilarityEngine(pages, FormPageSimilarity()).pairwise()

    batch = benchmark(engine_matrix)
    started = time.perf_counter()
    engine_matrix()
    batch_time = time.perf_counter() - started

    print(f"\nscalar all-pairs: {scalar_time:.3f}s; "
          f"engine: {batch_time:.4f}s "
          f"({scalar_time / max(batch_time, 1e-9):.0f}x)")
    # The scalar helper writes 1.0 on the diagonal by convention; HAC
    # never reads it, so only the off-diagonal entries are compared.
    off_diagonal = ~np.eye(len(pages), dtype=bool)
    assert np.allclose(scalar[off_diagonal], batch[off_diagonal], atol=1e-12)
    assert batch_time < scalar_time
