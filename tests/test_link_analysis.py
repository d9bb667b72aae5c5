"""Tests for the link-analysis extensions (HITS, hub quality, anchors)."""

import pytest

from repro.core.form_page import FormPage, VectorPair
from repro.core.hubs import HubCluster, build_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.link_analysis import (
    harvest_anchor_texts,
    hits,
    score_hub_clusters,
    select_hub_clusters_quality_aware,
)
from repro.link_analysis.hub_quality import cluster_tightness
from repro.vsm.vector import SparseVector
from repro.webgraph.graph import WebGraph, WebPage


def star_graph():
    """One hub pointing at three authorities plus an isolated page."""
    graph = WebGraph()
    graph.add_page(WebPage("http://hub.org/", "", [
        "http://a.com/", "http://b.com/", "http://c.com/",
    ]))
    for url in ("http://a.com/", "http://b.com/", "http://c.com/"):
        graph.add_page(WebPage(url, "", []))
    graph.add_page(WebPage("http://island.com/", "", []))
    return graph


class TestHits:
    def test_hub_identified(self):
        scores = hits(star_graph())
        top_hub, _ = scores.top_hubs(1)[0]
        assert top_hub == "http://hub.org/"

    def test_authorities_identified(self):
        scores = hits(star_graph())
        top = {url for url, _ in scores.top_authorities(3)}
        assert top == {"http://a.com/", "http://b.com/", "http://c.com/"}

    def test_isolated_node_scores_zero(self):
        scores = hits(star_graph())
        assert scores.hub["http://island.com/"] == 0.0
        assert scores.authority["http://island.com/"] == 0.0

    def test_scores_normalized(self):
        scores = hits(star_graph())
        total = sum(v * v for v in scores.hub.values())
        assert total == pytest.approx(1.0)

    def test_converges(self):
        scores = hits(star_graph())
        assert scores.converged

    def test_subset_restriction(self):
        scores = hits(star_graph(), urls=["http://hub.org/", "http://a.com/"])
        assert set(scores.hub) == {"http://hub.org/", "http://a.com/"}

    def test_empty_graph(self):
        scores = hits(WebGraph())
        assert scores.hub == {} and scores.authority == {}

    def test_two_hub_ranking(self):
        graph = star_graph()
        # A weaker hub linking to just one authority.
        graph.add_page(WebPage("http://weak-hub.org/", "", ["http://a.com/"]))
        scores = hits(graph)
        assert scores.hub["http://hub.org/"] > scores.hub["http://weak-hub.org/"]


def make_page(url, terms, label="job", backlinks=()):
    vector = SparseVector({t: 1.0 for t in terms})
    return FormPage(url=url, pc=vector, fc=vector,
                    backlinks=frozenset(backlinks), label=label)


class TestHubQuality:
    def _pages_and_clusters(self):
        hub_tight = "http://tight-hub.org/"
        hub_loose = "http://loose-hub.org/"
        pages = [
            make_page("http://j1.com/", ["job", "career"], "job", [hub_tight]),
            make_page("http://j2.com/", ["job", "salary"], "job", [hub_tight]),
            make_page("http://h1.com/", ["hotel", "room"], "hotel", [hub_loose]),
            make_page("http://a1.com/", ["car", "dealer"], "auto", [hub_loose]),
        ]
        clusters = build_hub_clusters(pages, min_cardinality=2)
        return pages, clusters

    def test_tightness_ordering(self):
        pages, clusters = self._pages_and_clusters()
        similarity = FormPageSimilarity()
        by_url = {c.hub_url: c for c in clusters}
        tight = cluster_tightness(by_url["http://tight-hub.org/"], pages, similarity)
        loose = cluster_tightness(by_url["http://loose-hub.org/"], pages, similarity)
        assert tight > loose

    def test_singleton_cluster_tightness_one(self):
        page = make_page("http://x.com/", ["a"])
        cluster = HubCluster("h", [0], VectorPair.of(page))
        assert cluster_tightness(cluster, [page], FormPageSimilarity()) == 1.0

    def test_score_sorted_tightest_first(self):
        pages, clusters = self._pages_and_clusters()
        scored = score_hub_clusters(clusters, pages, FormPageSimilarity())
        tightness_values = [q.tightness for q in scored]
        assert tightness_values == sorted(tightness_values, reverse=True)

    def test_quality_aware_selection_drops_loose(self):
        pages, clusters = self._pages_and_clusters()
        selected = select_hub_clusters_quality_aware(
            clusters, 1, pages, FormPageSimilarity(), drop_fraction=0.5
        )
        assert selected[0].hub_url == "http://tight-hub.org/"

    def test_never_drops_below_k(self):
        pages, clusters = self._pages_and_clusters()
        selected = select_hub_clusters_quality_aware(
            clusters, 2, pages, FormPageSimilarity(), drop_fraction=0.9
        )
        assert len(selected) == 2

    def test_validation(self):
        pages, clusters = self._pages_and_clusters()
        with pytest.raises(ValueError):
            select_hub_clusters_quality_aware(
                clusters, 1, pages, FormPageSimilarity(), drop_fraction=1.5
            )
        with pytest.raises(ValueError):
            select_hub_clusters_quality_aware(
                clusters, 10, pages, FormPageSimilarity()
            )


class TestAnchorText:
    def _graph(self):
        graph = WebGraph()
        graph.add_page(WebPage(
            "http://hub.org/",
            '<a href="http://site.com/search.html">Acme flight deals</a>'
            '<a href="http://site.com/">Acme home</a>'
            '<a href="http://other.com/">Other</a>',
            ["http://site.com/search.html", "http://site.com/", "http://other.com/"],
        ))
        return graph

    def test_harvest_direct_anchor(self):
        anchors = harvest_anchor_texts(
            self._graph(), "http://site.com/search.html", ["http://hub.org/"]
        )
        assert anchors == ["Acme flight deals"]

    def test_harvest_with_root_match(self):
        anchors = harvest_anchor_texts(
            self._graph(), "http://site.com/search.html", ["http://hub.org/"],
            also_match=["http://site.com/"],
        )
        assert sorted(anchors) == ["Acme flight deals", "Acme home"]

    def test_missing_backlink_pages_skipped(self):
        anchors = harvest_anchor_texts(
            self._graph(), "http://site.com/search.html",
            ["http://hub.org/", "http://gone.example/"],
        )
        assert anchors == ["Acme flight deals"]

    def test_anchor_text_reaches_pc_vector(self):
        from repro.core.form_page import RawFormPage
        from repro.core.vectorizer import FormPageVectorizer

        raw = [
            RawFormPage(
                "http://site.com/search.html",
                "<form><input type=text name=q></form>",
                anchor_texts=["cheap flights portal"],
            ),
            RawFormPage(
                "http://pad.com/", "<p>pad words</p><form><input type=text name=p></form>",
            ),
        ]
        pages = FormPageVectorizer().fit_transform(raw)
        assert "flight" in pages[0].pc
        # Anchor terms are off-page and excluded from the Table-1 count.
        assert pages[0].page_term_count == 0

    def test_benchmark_anchor_harvest(self, small_web):
        raw_with = small_web.raw_pages(include_anchor_text=True)
        n_with_anchors = sum(1 for p in raw_with if p.anchor_texts)
        # Most non-orphan pages have hub inlinks carrying anchors.
        assert n_with_anchors > len(raw_with) / 2


class TestQualityAwareOnCorpus:
    """Quality-aware selection runs Algorithm 3 on the engine backend;
    on the 454-page corpus it picks the hubs the per-pair path picked."""

    #: Selection at the paper's default cardinality (8), seed-42 corpus.
    DEFAULT_SELECTION = [
        "http://dir.nemi201.org/movie-links.html",
        "http://dir.livera33.org/airfare-links.html",
        "http://dir.tuzupomi63.org/auto-links.html",
        "http://dir.zugero100.org/book-links.html",
        "http://dir.rara169.org/job-links.html",
        "http://dir.cilo238.org/music-links.html",
        "http://dir.xeduko132.org/hotel-links.html",
        "http://dir.mone272.org/rental-links.html",
    ]

    def test_default_cardinality_selection_pinned(self, benchmark_pages):
        clusters = build_hub_clusters(benchmark_pages, min_cardinality=8)
        selected = select_hub_clusters_quality_aware(
            clusters, 8, benchmark_pages, FormPageSimilarity()
        )
        assert [c.hub_url for c in selected] == self.DEFAULT_SELECTION

    @pytest.mark.parametrize("min_cardinality", [3, 8, 12])
    def test_matches_oracle_selection(self, benchmark_pages, min_cardinality):
        from repro.core.seeds import select_hub_clusters
        from tests.oracle import NaiveBackend

        similarity = FormPageSimilarity()
        clusters = build_hub_clusters(
            benchmark_pages, min_cardinality=min_cardinality
        )
        scored = score_hub_clusters(clusters, benchmark_pages, similarity)
        keep = max(8, int(round(len(scored) * 0.75)))
        expected = select_hub_clusters(
            [q.cluster for q in scored[:keep]], 8,
            similarity=NaiveBackend(similarity),
        )
        selected = select_hub_clusters_quality_aware(
            clusters, 8, benchmark_pages, similarity
        )
        assert [c.hub_url for c in selected] == [c.hub_url for c in expected]
