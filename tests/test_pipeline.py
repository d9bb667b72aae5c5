"""Tests for the high-level CAFC pipeline."""

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline


class TestOrganize:
    def test_end_to_end_on_small_corpus(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        assert result.n_pages == len(small_raw_pages)
        assert 1 <= result.n_clusters <= 8

    def test_hub_seeding_used_when_possible(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        assert result.used_hub_seeding
        assert result.algorithm == "cafc-ch"
        assert result.n_hub_clusters > 0
        assert len(result.seed_hub_urls) == 8

    def test_fallback_to_cafc_c(self, small_raw_pages):
        # An absurd cardinality threshold leaves no hub clusters.
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=1000))
        result = pipeline.organize(small_raw_pages)
        assert not result.used_hub_seeding
        assert "fallback" in result.algorithm

    def test_explicit_cafc_c(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8))
        result = pipeline.organize(small_raw_pages, algorithm="cafc-c")
        assert result.algorithm == "cafc-c"
        assert not result.used_hub_seeding

    def test_unknown_algorithm_rejected(self, small_raw_pages):
        pipeline = CAFCPipeline()
        with pytest.raises(ValueError):
            pipeline.organize(small_raw_pages, algorithm="dbscan")

    def test_clusters_sorted_by_size(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        sizes = [cluster.size for cluster in result.clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_top_terms_describe_clusters(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        for cluster in result.clusters:
            assert cluster.top_terms
            assert all(isinstance(term, str) for term in cluster.top_terms)

    def test_cluster_urls(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        all_urls = [url for cluster in result.clusters for url in cluster.urls]
        assert sorted(all_urls) == sorted(p.url for p in small_raw_pages)


class TestClassify:
    def test_new_page_assigned_to_plausible_cluster(self, small_raw_pages, small_web):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)

        # Re-classify an existing job page (held out copy): its cluster
        # should be dominated by its own domain.
        sample = next(p for p in small_raw_pages if p.label == "job")
        cluster_index = pipeline.classify(sample, result)
        cluster = result.clusters[cluster_index]
        labels = [p.label for p in cluster.pages]
        assert labels.count("job") >= len(labels) / 2

    def test_classify_requires_clusters(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)
        result.clusters = []
        with pytest.raises(ValueError):
            pipeline.classify(small_raw_pages[0], result)


class TestHacAlgorithm:
    def test_hac_organize(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8))
        result = pipeline.organize(small_raw_pages, algorithm="hac")
        assert result.algorithm == "hac"
        assert result.n_pages == len(small_raw_pages)
        assert result.n_clusters <= 8
        assert not result.used_hub_seeding

    def test_hac_clusters_have_terms(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8))
        result = pipeline.organize(small_raw_pages, algorithm="hac")
        assert all(cluster.top_terms for cluster in result.clusters)

    def test_hac_matrix_counted_in_engine_stats(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8))
        result = pipeline.organize(small_raw_pages, algorithm="hac")
        n = len(small_raw_pages)
        assert result.engine_stats.comparisons == n * (n - 1) // 2

    def test_hac_with_fewer_pages_than_k(self, small_raw_pages):
        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages[:4], algorithm="hac")
        assert result.n_clusters <= 4
