"""Tests for the web graph, the simulated search engine, the crawler and
the searchable-form classifier."""

import pytest

from repro.html.forms import extract_forms
from repro.webgraph.crawler import Crawler
from repro.webgraph.form_classifier import classify_form, is_searchable
from repro.webgraph.graph import WebGraph, WebPage
from repro.webgraph.search_api import SimulatedSearchEngine, harvest_backlinks


def make_graph():
    graph = WebGraph()
    graph.add_page(WebPage("http://a.com/", "<a href=x>A</a>", ["http://b.com/"], kind="root"))
    graph.add_page(WebPage("http://b.com/", "<p>B</p>", ["http://a.com/", "http://c.com/"]))
    graph.add_page(WebPage("http://c.com/", "<p>C</p>", []))
    return graph


class TestWebGraph:
    def test_membership(self):
        graph = make_graph()
        assert "http://a.com/" in graph
        assert "http://missing.com/" not in graph
        assert len(graph) == 3

    def test_outlinks(self):
        graph = make_graph()
        assert graph.outlinks("http://b.com/") == ["http://a.com/", "http://c.com/"]
        assert graph.outlinks("http://missing.com/") == []

    def test_backlinks_indexed(self):
        graph = make_graph()
        assert graph.backlinks("http://a.com/") == ["http://b.com/"]
        assert graph.backlinks("http://c.com/") == ["http://b.com/"]

    def test_backlinks_of_unknown_url(self):
        assert make_graph().backlinks("http://nowhere.com/") == []

    def test_replace_page_retracts_old_links(self):
        graph = make_graph()
        graph.add_page(WebPage("http://b.com/", "<p>B2</p>", []))
        assert graph.backlinks("http://c.com/") == []

    def test_pages_sorted(self):
        urls = [page.url for page in make_graph().pages()]
        assert urls == sorted(urls)

    def test_pages_of_kind(self):
        graph = make_graph()
        assert [p.url for p in graph.pages_of_kind("root")] == ["http://a.com/"]

    def test_hosts(self):
        assert make_graph().hosts() == {"a.com", "b.com", "c.com"}


class TestSearchEngine:
    def test_full_coverage_returns_all(self):
        graph = make_graph()
        engine = SimulatedSearchEngine(graph, coverage=1.0)
        assert engine.link_query("http://a.com/") == ["http://b.com/"]

    def test_zero_coverage_returns_nothing(self):
        graph = make_graph()
        engine = SimulatedSearchEngine(graph, coverage=0.0)
        assert engine.link_query("http://a.com/") == []

    def test_max_results_cap(self):
        graph = WebGraph()
        target = "http://target.com/"
        graph.add_page(WebPage(target, "", []))
        for index in range(50):
            graph.add_page(WebPage(f"http://h{index}.com/", "", [target]))
        engine = SimulatedSearchEngine(graph, coverage=1.0, max_results=10)
        assert len(engine.link_query(target)) == 10

    def test_deterministic_across_instances(self):
        graph = make_graph()
        first = SimulatedSearchEngine(graph, coverage=0.5, seed=3)
        second = SimulatedSearchEngine(graph, coverage=0.5, seed=3)
        assert first.link_query("http://a.com/") == second.link_query("http://a.com/")

    def test_seed_changes_index(self):
        graph = WebGraph()
        target = "http://t.com/"
        graph.add_page(WebPage(target, "", []))
        for index in range(100):
            graph.add_page(WebPage(f"http://h{index}.com/", "", [target]))
        results = {
            seed: len(SimulatedSearchEngine(graph, coverage=0.5, seed=seed).link_query(target))
            for seed in range(3)
        }
        # Roughly half indexed; exact membership varies by seed.
        assert all(20 <= count <= 80 for count in results.values())

    def test_harvest_fallback_to_root(self):
        graph = WebGraph()
        form_url = "http://site.com/search.html"
        root_url = "http://site.com/"
        graph.add_page(WebPage(form_url, "", []))
        graph.add_page(WebPage(root_url, "", []))
        graph.add_page(WebPage("http://hub.org/", "", [root_url]))
        engine = SimulatedSearchEngine(graph, coverage=1.0)
        assert harvest_backlinks(engine, form_url, root_url) == ["http://hub.org/"]

    def test_harvest_unions_root_with_direct_hits(self):
        # A form page with backlinks of its own still gets its site
        # root's (Section 3.1), sorted and de-duplicated.
        graph = WebGraph()
        form_url = "http://site.com/search.html"
        root_url = "http://site.com/"
        graph.add_page(WebPage(form_url, "", []))
        graph.add_page(WebPage(root_url, "", []))
        graph.add_page(WebPage("http://hub2.org/", "", [form_url, root_url]))
        graph.add_page(WebPage("http://hub1.org/", "", [form_url]))
        graph.add_page(WebPage("http://hub3.org/", "", [root_url]))
        engine = SimulatedSearchEngine(graph, coverage=1.0)
        assert harvest_backlinks(engine, form_url, root_url) == [
            "http://hub1.org/", "http://hub2.org/", "http://hub3.org/",
        ]
        assert engine.query_count == 2

    def test_harvest_caps_the_union(self):
        # The cap applies to the union, not just to each query.
        graph = WebGraph()
        form_url = "http://site.com/search.html"
        root_url = "http://site.com/"
        graph.add_page(WebPage(form_url, "", []))
        graph.add_page(WebPage(root_url, "", []))
        for index in range(3):
            graph.add_page(WebPage(f"http://a{index}.org/", "", [form_url]))
            graph.add_page(WebPage(f"http://b{index}.org/", "", [root_url]))
        engine = SimulatedSearchEngine(graph, coverage=1.0, max_results=4)
        assert harvest_backlinks(engine, form_url, root_url) == [
            "http://a0.org/", "http://a1.org/", "http://a2.org/",
            "http://b0.org/",
        ]
        # The page itself as root adds nothing.
        assert harvest_backlinks(engine, form_url, form_url) == [
            "http://a0.org/", "http://a1.org/", "http://a2.org/",
        ]

    def test_validation(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            SimulatedSearchEngine(graph, coverage=1.5)
        with pytest.raises(ValueError):
            SimulatedSearchEngine(graph, max_results=0)

    def test_query_counter(self):
        engine = SimulatedSearchEngine(make_graph())
        engine.link_query("http://a.com/")
        engine.link_query("http://b.com/")
        assert engine.query_count == 2


SEARCHABLE = """
<form action="/search" method="get">
Flight Search
<select name="from"><option>Boston</option><option>Denver</option></select>
<select name="to"><option>Boston</option><option>Denver</option></select>
<input type="submit" value="Search">
</form>
"""

LOGIN = """
<form action="/login" method="post">
<input type="text" name="user">
<input type="password" name="pass">
<input type="submit" value="Login">
</form>
"""

NEWSLETTER = """
<form action="/subscribe" method="post">
Subscribe to our newsletter
<input type="text" name="email">
<input type="submit" value="Subscribe">
</form>
"""

KEYWORD = """
<form action="/find" method="get">
<input type="text" name="q">
<input type="submit" value="Search">
</form>
"""


class TestFormClassifier:
    def test_searchable_multi_attribute(self):
        assert classify_form(extract_forms(SEARCHABLE)[0])

    def test_login_rejected(self):
        assert not classify_form(extract_forms(LOGIN)[0])

    def test_newsletter_rejected(self):
        assert not classify_form(extract_forms(NEWSLETTER)[0])

    def test_keyword_form_accepted(self):
        assert classify_form(extract_forms(KEYWORD)[0])

    def test_page_level_helper(self):
        assert is_searchable(f"<html><body>{SEARCHABLE}</body></html>")
        assert not is_searchable(f"<html><body>{LOGIN}</body></html>")
        assert not is_searchable("<html><body>no form</body></html>")

    def test_page_with_both_forms_is_searchable(self):
        assert is_searchable(f"<html><body>{LOGIN}{SEARCHABLE}</body></html>")


class TestCrawler:
    def _form_graph(self):
        graph = WebGraph()
        graph.add_page(
            WebPage("http://s.com/", "<a href='/f'>x</a>",
                    ["http://s.com/f", "http://s.com/login"], kind="root")
        )
        graph.add_page(WebPage("http://s.com/f", f"<html><body>{SEARCHABLE}</body></html>",
                               [], kind="form"))
        graph.add_page(WebPage("http://s.com/login", f"<html><body>{LOGIN}</body></html>",
                               [], kind="login"))
        return graph

    def test_finds_searchable_form_pages(self):
        crawler = Crawler(self._form_graph())
        result = crawler.crawl(["http://s.com/"])
        assert [p.url for p in result.form_pages] == ["http://s.com/f"]

    def test_rejects_login_pages(self):
        crawler = Crawler(self._form_graph())
        result = crawler.crawl(["http://s.com/"])
        assert [p.url for p in result.rejected_form_pages] == ["http://s.com/login"]

    def test_unfiltered_mode(self):
        crawler = Crawler(self._form_graph(), filter_searchable=False)
        result = crawler.crawl(["http://s.com/"])
        assert len(result.form_pages) == 2

    def test_max_pages_cap(self):
        crawler = Crawler(self._form_graph(), max_pages=1)
        result = crawler.crawl(["http://s.com/"])
        assert result.n_visited == 1

    def test_dangling_links_skipped(self):
        graph = WebGraph()
        graph.add_page(WebPage("http://a.com/", "", ["http://404.com/"]))
        result = Crawler(graph).crawl(["http://a.com/"])
        assert result.visited == ["http://a.com/"]

    def test_no_revisits(self):
        graph = WebGraph()
        graph.add_page(WebPage("http://a.com/", "", ["http://b.com/"]))
        graph.add_page(WebPage("http://b.com/", "", ["http://a.com/"]))
        result = Crawler(graph).crawl(["http://a.com/"])
        assert sorted(result.visited) == ["http://a.com/", "http://b.com/"]

    def test_crawl_full_benchmark(self, small_web):
        # Crawling from every site root must find every searchable form.
        roots = [site.root_url for site in small_web.sites]
        crawler = Crawler(small_web.graph)
        result = crawler.crawl(roots)
        found = {p.url for p in result.form_pages}
        expected = set(small_web.form_page_urls())
        # The classifier is heuristic; near-total recall is the bar.
        recall = len(expected & found) / len(expected)
        assert recall >= 0.95
