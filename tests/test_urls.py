"""Tests for URL helpers."""

from types import SimpleNamespace
from urllib.parse import urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hubs import group_by_hub
from repro.webgen.config import GeneratorConfig
from repro.webgen.corpus import generate_benchmark
from repro.webgraph import urls
from repro.webgraph.urls import host_of, root_url_of, same_site, site_of


def reference_host(url):
    return urlparse(url).netloc.lower()


class TestHostOf:
    def test_basic(self):
        assert host_of("http://www.example.com/a/b?x=1") == "www.example.com"

    def test_case_folded(self):
        assert host_of("http://WWW.Example.COM/") == "www.example.com"

    def test_unparseable(self):
        assert host_of("not a url") == ""


class TestSiteOf:
    def test_strips_www(self):
        assert site_of("http://www.example.com/") == "example.com"

    def test_bare_host(self):
        assert site_of("http://example.com/x") == "example.com"

    def test_subdomain_kept(self):
        assert site_of("http://jobs.example.com/") == "jobs.example.com"


class TestSameSite:
    def test_www_variant_matches(self):
        assert same_site("http://www.x.com/a", "http://x.com/b")

    def test_different_sites(self):
        assert not same_site("http://a.com/", "http://b.com/")

    def test_empty_host_never_matches(self):
        assert not same_site("garbage", "garbage")


class TestRootUrl:
    def test_basic(self):
        assert root_url_of("http://www.x.com/deep/page.html?q=1") == "http://www.x.com/"

    def test_https_preserved(self):
        assert root_url_of("https://x.com/a") == "https://x.com/"

    def test_schemeless_defaults_http(self):
        assert root_url_of("//x.com/a") == "http://x.com/"


# ---------------------------------------------------------------------
# host_of's regex path against urlparse.
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def seed_one_raw_pages():
    return generate_benchmark(config=GeneratorConfig(seed=1)).raw_pages()


def corpus_urls(raw_pages):
    out = []
    for raw in raw_pages:
        out.append(raw.url)
        out.extend(raw.backlinks)
    return out


class TestHostOfMatchesUrlparse:
    def test_every_corpus_url(self, seed_one_raw_pages, benchmark_raw_pages):
        for raw_pages in (seed_one_raw_pages, benchmark_raw_pages):
            every = corpus_urls(raw_pages)
            assert len(every) > len(raw_pages)
            assert all(urls._PLAIN_NETLOC.match(url) for url in every)
            assert [host_of(url) for url in every] == [
                reference_host(url) for url in every
            ]

    def test_hub_groups_unchanged(
        self, seed_one_raw_pages, benchmark_raw_pages, monkeypatch
    ):
        for raw_pages in (seed_one_raw_pages, benchmark_raw_pages):
            pages = [
                SimpleNamespace(url=raw.url, backlinks=raw.backlinks)
                for raw in raw_pages
            ]
            fast = group_by_hub(pages)
            with monkeypatch.context() as patched:
                patched.setattr(urls, "host_of", reference_host)
                assert group_by_hub(pages) == fast

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.one_of(
        st.tuples(
            st.sampled_from(["", " ", "\t", "\x00", "\n"]),
            st.sampled_from([
                "http", "HTTPS", "ftp", "a+b.c-d", "1x", "", "ht tp",
                "h\tt", "é", "x:y",
            ]),
            st.sampled_from(["://", ":/", "//", ":", "", ":///", ":\n//"]),
            st.text(
                st.sampled_from(list(
                    "abXY09-._~:@[]\\/?#%!$&'()*+,;= \t\r\n\x00\x7f"
                    "\u00e9\u2100\uff03"
                )),
                max_size=30,
            ),
        ).map("".join),
        st.text(max_size=40),
    ))
    def test_arbitrary_strings(self, url):
        try:
            want = reference_host(url)
        except ValueError:
            with pytest.raises(ValueError):
                host_of(url)
            return
        assert host_of(url) == want
