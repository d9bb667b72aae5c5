"""Tests for CAFC-C and CAFC-CH (Algorithms 1-3) on synthetic corpora."""

import pytest

from repro.core.cafc_c import cafc_c, random_seed_centroids
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair
from repro.core.hubs import build_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.vsm.vector import SparseVector
from tests.oracle import NaiveBackend, oracle_kmeans
import random


def page(url, label, terms, backlinks=()):
    vector = SparseVector({term: 1.0 for term in terms})
    return FormPage(
        url=url, pc=vector, fc=vector,
        backlinks=frozenset(backlinks), label=label,
    )


def toy_corpus():
    """Three clean domains, four pages each, with per-domain hubs."""
    pages = []
    vocab = {
        "job": ["job", "career", "salary"],
        "hotel": ["hotel", "room", "stay"],
        "auto": ["car", "dealer", "engine"],
    }
    for domain, words in vocab.items():
        hub = f"http://{domain}-hub.org/list"
        for index in range(4):
            terms = words + [f"{domain}{index}"]  # per-page idiosyncrasy
            pages.append(
                page(f"http://{domain}{index}.com/search", domain, terms, [hub])
            )
    return pages


class TestCafcC:
    def test_clusters_toy_domains(self):
        pages = toy_corpus()
        result = cafc_c(pages, CAFCConfig(k=3, seed=1, stop_fraction=0.0))
        gold = [p.label for p in pages]
        # The toy corpus is separable; a decent seed gets it right.
        assert overall_f_measure(result.clustering, gold) > 0.7

    def test_respects_k(self):
        pages = toy_corpus()
        result = cafc_c(pages, CAFCConfig(k=3, seed=0))
        assert result.clustering.n_clusters == 3

    def test_partition_covers_all_pages(self):
        pages = toy_corpus()
        result = cafc_c(pages, CAFCConfig(k=3, seed=0))
        assert result.clustering.n_points == len(pages)

    def test_reproducible_given_seed(self):
        pages = toy_corpus()
        first = cafc_c(pages, CAFCConfig(k=3, seed=5))
        second = cafc_c(pages, CAFCConfig(k=3, seed=5))
        assert first.clustering.clusters == second.clustering.clusters

    def test_different_seeds_allowed(self):
        pages = toy_corpus()
        cafc_c(pages, CAFCConfig(k=3, seed=1))
        cafc_c(pages, CAFCConfig(k=3, seed=2))  # must not raise

    def test_explicit_seed_centroids(self):
        pages = toy_corpus()
        seeds = [VectorPair.of(pages[0]), VectorPair.of(pages[4]), VectorPair.of(pages[8])]
        result = cafc_c(pages, CAFCConfig(k=3), seed_centroids=seeds)
        gold = [p.label for p in pages]
        assert total_entropy(result.clustering, gold) == pytest.approx(0.0)

    def test_seed_count_mismatch_raises(self):
        pages = toy_corpus()
        with pytest.raises(ValueError):
            cafc_c(pages, CAFCConfig(k=3), seed_centroids=[VectorPair.of(pages[0])])

    def test_more_seeds_than_pages_raises(self):
        pages = toy_corpus()[:2]
        with pytest.raises(ValueError):
            cafc_c(pages, CAFCConfig(k=3, seed=0))

    def test_random_seed_centroids_helper(self):
        pages = toy_corpus()
        seeds = random_seed_centroids(pages, 3, random.Random(0))
        assert len(seeds) == 3

    def test_content_mode_respected(self):
        pages = [
            page("http://a.com/", "a", ["x"]),
            page("http://b.com/", "b", ["y"]),
        ]
        # Give them identical FC but different PC.
        pages[0].fc = SparseVector({"same": 1.0})
        pages[1].fc = SparseVector({"same": 1.0})
        sim_fc = FormPageSimilarity.from_config(
            CAFCConfig(k=2, content_mode=ContentMode.FC)
        )
        sim_pc = FormPageSimilarity.from_config(
            CAFCConfig(k=2, content_mode=ContentMode.PC)
        )
        assert sim_fc(pages[0], pages[1]) == pytest.approx(1.0)
        assert sim_pc(pages[0], pages[1]) == 0.0


class TestCafcCH:
    def test_hub_seeding_beats_toy_noise(self):
        pages = toy_corpus()
        result = cafc_ch(pages, CAFCConfig(k=3, min_hub_cardinality=2))
        gold = [p.label for p in pages]
        assert total_entropy(result.clustering, gold) == pytest.approx(0.0)
        assert overall_f_measure(result.clustering, gold) == pytest.approx(1.0)

    def test_artifacts_exposed(self):
        pages = toy_corpus()
        result = cafc_ch(pages, CAFCConfig(k=3, min_hub_cardinality=2))
        assert len(result.hub_clusters) == 3
        assert len(result.selected_seeds) == 3

    def test_prebuilt_hub_clusters_accepted(self):
        pages = toy_corpus()
        hubs = build_hub_clusters(pages, min_cardinality=2)
        result = cafc_ch(pages, CAFCConfig(k=3), hub_clusters=hubs)
        assert result.hub_clusters is hubs

    def test_insufficient_hubs_raises(self):
        pages = toy_corpus()
        with pytest.raises(ValueError):
            cafc_ch(pages, CAFCConfig(k=3, min_hub_cardinality=100))

    def test_deterministic(self):
        pages = toy_corpus()
        first = cafc_ch(pages, CAFCConfig(k=3, min_hub_cardinality=2))
        second = cafc_ch(pages, CAFCConfig(k=3, min_hub_cardinality=2))
        assert first.clustering.clusters == second.clustering.clusters


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            CAFCConfig(k=0)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            CAFCConfig(page_weight=-1.0)
        with pytest.raises(ValueError):
            CAFCConfig(page_weight=0.0, form_weight=0.0)

    def test_bad_stop_fraction(self):
        with pytest.raises(ValueError):
            CAFCConfig(stop_fraction=1.0)

    def test_bad_min_cardinality(self):
        with pytest.raises(ValueError):
            CAFCConfig(min_hub_cardinality=0)

    def test_content_mode_flags(self):
        assert ContentMode.FC.uses_fc and not ContentMode.FC.uses_pc
        assert ContentMode.PC.uses_pc and not ContentMode.PC.uses_fc
        assert ContentMode.FC_PC.uses_fc and ContentMode.FC_PC.uses_pc


class TestOnSmallBenchmark:
    def test_cafc_ch_beats_cafc_c(self, small_pages, small_gold):
        config = CAFCConfig(k=8, min_hub_cardinality=3)
        ch = cafc_ch(small_pages, config)
        c = cafc_c(small_pages, CAFCConfig(k=8, seed=0))
        assert total_entropy(ch.clustering, small_gold) <= total_entropy(
            c.clustering, small_gold
        ) + 0.05

    def test_cafc_ch_quality_floor(self, small_pages, small_gold):
        config = CAFCConfig(k=8, min_hub_cardinality=3)
        ch = cafc_ch(small_pages, config)
        assert overall_f_measure(ch.clustering, small_gold) > 0.75


class TestOracleParity:
    """CAFC-C and CAFC-CH on the 454-page corpus give exactly the
    clusterings of the per-pair reference path."""

    def test_cafc_c_matches_oracle(self, benchmark_pages):
        config = CAFCConfig(k=8, seed=3)
        seeds = random_seed_centroids(benchmark_pages, 8, random.Random(3))
        oracle = oracle_kmeans(benchmark_pages, seeds, config)
        result = cafc_c(benchmark_pages, config)
        assert result.clustering.clusters == oracle.clustering.clusters
        assert result.iterations == oracle.iterations

    def test_cafc_ch_matches_oracle(self, benchmark_pages, benchmark_gold):
        from repro.core.seeds import select_hub_clusters

        config = CAFCConfig(k=8)
        hubs = build_hub_clusters(
            benchmark_pages, min_cardinality=config.min_hub_cardinality
        )
        selected = select_hub_clusters(
            hubs, 8, similarity=NaiveBackend.from_config(config)
        )
        oracle = oracle_kmeans(
            benchmark_pages, [c.centroid for c in selected], config
        )
        result = cafc_ch(benchmark_pages, config, hub_clusters=hubs)
        assert [c.hub_url for c in result.selected_seeds] == [
            c.hub_url for c in selected
        ]
        assert result.clustering.clusters == oracle.clustering.clusters
        assert total_entropy(result.clustering, benchmark_gold) == total_entropy(
            oracle.clustering, benchmark_gold
        )
