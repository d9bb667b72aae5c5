"""End-to-end integration tests: crawl -> filter -> harvest -> cluster.

These exercise the full stack the way a downstream user would, on the
small fixture corpus (fast) plus paper-profile audits on the full
benchmark corpus.
"""

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.core.form_page import RawFormPage
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure
from repro.webgraph.crawler import Crawler
from repro.webgraph.search_api import harvest_backlinks
from repro.webgraph.urls import root_url_of


class TestCrawlThenCluster:
    """The full production path: a crawler discovers form pages on the
    synthetic web, the classifier filters them, backlinks are harvested
    from the simulated engine, and CAFC organizes the result."""

    @pytest.fixture(scope="class")
    def crawl_result(self, small_web):
        roots = [site.root_url for site in small_web.sites]
        return Crawler(small_web.graph).crawl(roots)

    def test_crawler_recovers_searchable_forms(self, crawl_result, small_web):
        found = {page.url for page in crawl_result.form_pages}
        expected = set(small_web.form_page_urls())
        recall = len(expected & found) / len(expected)
        assert recall >= 0.95

    def test_login_forms_filtered_out(self, crawl_result, small_web):
        rejected = {page.url for page in crawl_result.rejected_form_pages}
        login_urls = {
            page.url
            for site in small_web.sites
            for page in site.pages
            if page.kind == "login"
        }
        assert login_urls <= rejected

    def test_crawl_filter_harvest_cluster(self, crawl_result, small_web):
        engine = small_web.search_engine()
        labels_by_url = {
            site.form_page_url: site.domain_name for site in small_web.sites
        }

        raw_pages = []
        for page in crawl_result.form_pages:
            if page.url not in labels_by_url:
                continue  # hub pages can also contain forms in principle
            backlinks = harvest_backlinks(
                engine, page.url, root_url_of(page.url)
            )
            raw_pages.append(
                RawFormPage(
                    url=page.url,
                    html=page.html,
                    backlinks=backlinks,
                    label=labels_by_url[page.url],
                )
            )

        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(raw_pages)
        pages = [p for cluster in result.clusters for p in cluster.pages]
        gold = [p.label for p in pages]
        clustering_labels = []
        for index, cluster in enumerate(result.clusters):
            clustering_labels.extend([index] * cluster.size)
        from repro.clustering.types import Clustering

        clustering = Clustering.from_labels(clustering_labels)
        assert overall_f_measure(clustering, gold) > 0.7


class TestBenchmarkReproduction:
    """Headline paper claims on the real 454-page corpus."""

    def test_cafc_ch_reaches_high_quality(self, benchmark_pages, benchmark_gold):
        from repro.core.cafc_ch import cafc_ch

        result = cafc_ch(benchmark_pages, CAFCConfig(k=8))
        entropy = total_entropy(result.clustering, benchmark_gold)
        f_measure = overall_f_measure(result.clustering, benchmark_gold)
        assert entropy < 0.25          # paper: 0.15
        assert f_measure > 0.90        # paper: 0.96

    def test_cafc_ch_beats_cafc_c(self, benchmark_pages, benchmark_gold):
        import statistics

        from repro.core.cafc_c import cafc_c
        from repro.core.cafc_ch import cafc_ch

        ch = cafc_ch(benchmark_pages, CAFCConfig(k=8))
        ch_entropy = total_entropy(ch.clustering, benchmark_gold)
        c_entropies = [
            total_entropy(
                cafc_c(benchmark_pages, CAFCConfig(k=8, seed=seed)).clustering,
                benchmark_gold,
            )
            for seed in range(5)
        ]
        assert ch_entropy < statistics.mean(c_entropies)

    def test_hub_homogeneity_near_paper(self, benchmark_pages):
        from repro.core.hubs import build_hub_clusters, homogeneity_rate

        clusters = build_hub_clusters(benchmark_pages, min_cardinality=1)
        assert 0.55 <= homogeneity_rate(clusters, benchmark_pages) <= 0.85

    def test_backlinkless_fraction_near_paper(self, benchmark_raw_pages):
        from repro.webgraph.urls import same_site

        missing = sum(
            1
            for page in benchmark_raw_pages
            if not any(not same_site(b, page.url) for b in page.backlinks)
        )
        fraction = missing / len(benchmark_raw_pages)
        assert 0.10 <= fraction <= 0.25   # paper: >15%

    def test_single_attribute_pages_clustered_well(
        self, benchmark_pages, benchmark_gold
    ):
        from repro.core.cafc_ch import cafc_ch
        from repro.eval.confusion import ConfusionAnalysis

        result = cafc_ch(benchmark_pages, CAFCConfig(k=8))
        analysis = ConfusionAnalysis.analyze(result.clustering, benchmark_pages)
        # Paper: only 1 of 17 errors is a single-attribute form.
        assert analysis.n_single_attribute_errors <= 3


class TestClassifyNewSources:
    """Section 5: using built clusters to classify new sources."""

    def test_new_pages_from_fresh_seed_classified(self, small_raw_pages):
        from tests.conftest import small_config
        from repro.webgen.corpus import generate_benchmark

        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        result = pipeline.organize(small_raw_pages)

        fresh = generate_benchmark(config=small_config(seed=99))
        correct = 0
        total = 0
        for raw in fresh.raw_pages()[:40]:
            cluster_index = pipeline.classify(raw, result)
            cluster = result.clusters[cluster_index]
            labels = [p.label for p in cluster.pages]
            majority = max(set(labels), key=labels.count)
            total += 1
            if majority == raw.label:
                correct += 1
        assert correct / total > 0.6
