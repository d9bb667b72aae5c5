"""Tests for the batched similarity engine behind FormPageSimilarity.

The contract under test: the all-pairs matrix agrees with the scalar
Equation-3 oracle (:mod:`tests.oracle`) to 1e-12, and k-means returns
the generic loop's clustering, iteration count and centroids exactly,
including degenerate pages with an empty PC or FC vector, across all
three content modes.
"""

import itertools
import random

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.core.cafc_c import cafc_c, random_seed_centroids
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.core.pipeline import CAFCPipeline
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import EngineStats, SimilarityEngine
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector
from repro.webgen.config import GeneratorConfig
from repro.webgen.corpus import generate_benchmark
from tests.oracle import NaiveBackend, max_abs_diff, oracle_kmeans

TOLERANCE = 1e-12

VOCAB = [f"term{i}" for i in range(60)]


@pytest.fixture(scope="module")
def sparse_vocab():
    """Sixty terms whose VOCABULARY ids are large and far apart: 50k
    filler terms are interned around them first."""
    terms = []
    for i in range(60):
        for j in range(850):
            VOCABULARY.intern(f"simengine-filler-{i}-{j}")
        terms.append(f"simengine-sparse-{i}")
        VOCABULARY.intern(terms[-1])
    return terms


@pytest.fixture(scope="module")
def seed1_raw_pages():
    return generate_benchmark(config=GeneratorConfig(seed=1)).raw_pages()


def random_vector(
    rng: random.Random, empty_chance: float = 0.0, vocab=VOCAB
) -> SparseVector:
    if rng.random() < empty_chance:
        return SparseVector()
    n_terms = rng.randint(1, 12)
    return SparseVector(
        {rng.choice(vocab): rng.uniform(0.05, 5.0) for _ in range(n_terms)}
    )


def random_pages(rng: random.Random, n: int, vocab=VOCAB) -> list:
    """Random vectorized pages, ~15% with an empty PC or FC vector."""
    pages = []
    for i in range(n):
        pages.append(
            FormPage(
                url=f"http://site{i}.example/search",
                pc=random_vector(rng, empty_chance=0.15, vocab=vocab),
                fc=random_vector(rng, empty_chance=0.15, vocab=vocab),
                label=f"domain{i % 4}",
            )
        )
    return pages


def config_for(mode: ContentMode, **overrides) -> CAFCConfig:
    return CAFCConfig(k=3, content_mode=mode, **overrides)


class TestBackendAgreement:
    """The 200-random-pair property test and full-matrix pins, all
    content modes, engine vs the scalar oracle."""

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_engine_matches_naive_on_random_pairs(self, mode):
        rng = random.Random(1234)
        pages = random_pages(rng, 40)
        config = config_for(mode)
        naive = NaiveBackend.from_config(config)
        engine = FormPageSimilarity.from_config(config)
        matrix = engine.pairwise(pages)
        for _ in range(200):
            i = rng.randrange(len(pages))
            j = rng.randrange(len(pages))
            expected = naive(pages[i], pages[j])
            assert engine(pages[i], pages[j]) == pytest.approx(
                expected, abs=TOLERANCE
            )
            assert matrix[i][j] == pytest.approx(expected, abs=TOLERANCE)

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_full_pairwise_matrix_agreement(self, mode, sparse_vocab):
        rng = random.Random(99)
        config = config_for(mode)
        for vocab in (VOCAB, sparse_vocab):
            pages = random_pages(rng, 30, vocab)
            reference = NaiveBackend.from_config(config).pairwise(pages)
            compiled = FormPageSimilarity.from_config(config).pairwise(pages)
            assert max_abs_diff(reference, compiled) <= TOLERANCE

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_numpy_fast_path_agreement(self, mode):
        """The CSR-matmul matrix is a symmetric ndarray on the oracle."""
        rng = random.Random(7)
        pages = random_pages(rng, 30)
        config = config_for(mode)
        reference = NaiveBackend.from_config(config).pairwise(pages)
        compiled = FormPageSimilarity.from_config(config).pairwise(pages)
        assert isinstance(compiled, np.ndarray)
        assert compiled.shape == (len(pages), len(pages))
        assert max_abs_diff(compiled, compiled.T) <= TOLERANCE
        assert max_abs_diff(reference, compiled) <= TOLERANCE

    def test_weighted_combination(self):
        rng = random.Random(3)
        pages = random_pages(rng, 20)
        config = CAFCConfig(k=3, page_weight=2.0, form_weight=0.5)
        reference = NaiveBackend.from_config(config).pairwise(pages)
        compiled = FormPageSimilarity.from_config(config).pairwise(pages)
        assert max_abs_diff(reference, compiled) <= TOLERANCE


class TestEngineShapes:
    def test_kmeans_identical_to_naive_path(self, sparse_vocab):
        """Clusterings, iterations and the Equation-4 centroids of every
        content mode equal the generic loop's, from random page seeds and
        from seeds holding a term no page holds."""
        rng = random.Random(41)
        for vocab, mode in itertools.product(
            (VOCAB, sparse_vocab), ContentMode
        ):
            pages = random_pages(rng, 36, vocab)
            external = VectorPair(
                pc=SparseVector({vocab[0]: 1.0, "simengine-external": 2.0}),
                fc=SparseVector({"simengine-external": 1.0}),
            )
            for seed in (0, 1, 2):
                config = CAFCConfig(k=3, seed=seed, content_mode=mode)
                seeds = random_seed_centroids(pages, 3, random.Random(seed))
                for seeds in (seeds, seeds[:2] + [external]):
                    naive = oracle_kmeans(pages, seeds, config)
                    terms = len(VOCABULARY)
                    engine = cafc_c(pages, config, seed_centroids=seeds)
                    assert len(VOCABULARY) == terms
                    assert (
                        naive.clustering.clusters
                        == engine.clustering.clusters
                    )
                    assert naive.iterations == engine.iterations
                    assert naive.converged == engine.converged
                    assert engine.centroids == naive.centroids

    def test_empty_collection(self):
        engine = SimilarityEngine([], FormPageSimilarity())
        assert engine.pairwise().shape == (0, 0)
        seeds = [VectorPair(pc=SparseVector({"a": 1.0}), fc=SparseVector())]
        result = engine.kmeans(seeds)
        assert result.converged
        assert result.clustering.clusters == [[]]

    def test_combined_mode_needs_a_positive_weight(self):
        with pytest.raises(ValueError):
            FormPageSimilarity(page_weight=0.0, form_weight=0.0)


class TestStats:
    def test_pairwise_counts_comparisons(self):
        rng = random.Random(51)
        pages = random_pages(rng, 10)
        similarity = FormPageSimilarity()
        similarity.pairwise(pages)
        assert similarity.stats.comparisons == 10 * 9 // 2

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_n_terms_counts_distinct_compiled_terms(self, mode, sparse_vocab):
        rng = random.Random(55)
        pages = random_pages(rng, 20) + random_pages(rng, 20, sparse_vocab)
        engine = SimilarityEngine(pages, FormPageSimilarity(mode))
        expected = sum(
            len({term for page in pages for term in getattr(page, name)})
            for name in engine.space_names
        )
        assert engine.stats.n_terms == engine.n_terms == expected

    @pytest.mark.parametrize(
        "algorithm, expected",
        [("cafc-ch", 13_042), ("cafc-c", 10_896), ("hac", 102_831)],
    )
    def test_organize_comparisons_pinned(
        self, seed1_raw_pages, algorithm, expected
    ):
        """What an organize of the seed-1 corpus at k = 8 reports (the
        count perfbench publishes as ``core.simengine.comparisons``)."""
        result = CAFCPipeline(CAFCConfig(k=8)).organize(
            seed1_raw_pages, algorithm
        )
        assert result.engine_stats.comparisons == expected

    def test_snapshot_is_detached(self):
        stats = EngineStats(comparisons=3)
        copy = stats.snapshot()
        stats.comparisons = 99
        assert copy.comparisons == 3

    def test_naive_backend_counts_too(self):
        rng = random.Random(53)
        pages = random_pages(rng, 6)
        backend = NaiveBackend(FormPageSimilarity())
        backend.pairwise(pages)
        # Full matrix: diagonal plus both triangles' shared computation.
        assert backend.stats.comparisons == 6 + 6 * 5 // 2

    def test_backend_tag_is_constant(self):
        assert FormPageSimilarity().stats.backend == "engine"
        engine = SimilarityEngine([], FormPageSimilarity())
        assert engine.stats.as_dict()["backend"] == "engine"


class TestResolveBackend:
    """``similarity=`` takes a FormPageSimilarity instance or None (built
    from the config); nothing else is resolved."""

    def test_instance_passthrough(self):
        """A caller's instance is used as-is: its stats see the run."""
        rng = random.Random(54)
        pages = random_pages(rng, 12)
        similarity = FormPageSimilarity()
        cafc_c(pages, CAFCConfig(k=3), similarity=similarity)
        assert similarity.stats.comparisons > 0
        assert similarity.stats.n_pages == len(pages)

    def test_config_carries_weights_into_backends(self):
        config = CAFCConfig(
            content_mode=ContentMode.FC, page_weight=2.0, form_weight=3.0
        )
        engine = FormPageSimilarity.from_config(config)
        assert engine.content_mode is ContentMode.FC
        assert engine.form_weight == 3.0

    def test_seeds_positional_similarity_removed(self):
        """``select_hub_clusters`` takes no positional similarity; the
        per-pair oracle selects the same seeds as the engine."""
        from repro.core.hubs import HubCluster
        from repro.core.seeds import select_hub_clusters

        rng = random.Random(61)
        pages = random_pages(rng, 9)
        clusters = [
            HubCluster(
                hub_url=f"http://hub{i}.example/",
                members=[i],
                centroid=VectorPair.of(page),
            )
            for i, page in enumerate(pages)
        ]
        with pytest.raises(TypeError):
            select_hub_clusters(clusters, 3, FormPageSimilarity())
        oracle = select_hub_clusters(
            clusters, 3, similarity=NaiveBackend(FormPageSimilarity())
        )
        engine = select_hub_clusters(
            clusters, 3, similarity=FormPageSimilarity()
        )
        assert [c.hub_url for c in oracle] == [c.hub_url for c in engine]


class TestCafcSeedPathways:
    def test_random_seeds_unchanged_by_backend(self):
        """Seed selection draws from the config RNG identically on every
        call (the backend never touches the RNG)."""
        rng = random.Random(71)
        pages = random_pages(rng, 20)
        seeds_a = random_seed_centroids(pages, 4, random.Random(5))
        seeds_b = random_seed_centroids(pages, 4, random.Random(5))
        assert [s.pc for s in seeds_a] == [s.pc for s in seeds_b]


class TestCorpusParity:
    """Engine vs oracle on the 454-page benchmark corpus."""

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_pairwise_and_page_centroid_within_tolerance(
        self, benchmark_pages, mode
    ):
        pages = benchmark_pages[:120]
        config = config_for(mode)
        naive = NaiveBackend.from_config(config)
        engine = FormPageSimilarity.from_config(config)
        assert max_abs_diff(
            naive.pairwise(pages), engine.pairwise(pages)
        ) <= TOLERANCE
        # The page x centroid shape: one assignment pass, no update.
        centroids = [VectorPair.of(page) for page in benchmark_pages[-8:]]
        batched = SimilarityEngine(benchmark_pages, engine).kmeans(
            centroids, max_iterations=0
        )
        scalar = kmeans(
            benchmark_pages, centroids, naive, centroid_of, max_iterations=0
        )
        assert batched.clustering.clusters == scalar.clustering.clusters

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_engine_kmeans_identical_to_oracle(self, benchmark_pages, mode):
        for seed in (0, 1):
            config = CAFCConfig(k=8, seed=seed, content_mode=mode)
            seeds = random_seed_centroids(benchmark_pages, 8, random.Random(seed))
            oracle = oracle_kmeans(benchmark_pages, seeds, config)
            engine = SimilarityEngine(
                benchmark_pages, FormPageSimilarity.from_config(config)
            ).kmeans(
                seeds,
                stop_fraction=config.stop_fraction,
                max_iterations=config.max_iterations,
            )
            assert engine.clustering.clusters == oracle.clustering.clusters
            assert engine.iterations == oracle.iterations
            assert engine.centroids == oracle.centroids
