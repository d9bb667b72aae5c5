"""Web-graph substrate: URLs, the simulated `link:` API, crawling,
searchable-form classification.

The paper obtains its link structure from a commercial search engine's
``link:`` query facility (Section 3.1) and its input form pages from a
focused crawler whose output is filtered by a generic searchable-form
classifier [3].  This package provides those substrates over a synthetic
web graph:

* :mod:`repro.webgraph.urls` — host / site parsing helpers.
* :class:`repro.webgraph.graph.WebGraph` — pages + hyperlinks.
* :class:`repro.webgraph.search_api.SimulatedSearchEngine` — the `link:`
  backlink API with result caps and deliberate incompleteness, and
  :func:`~repro.webgraph.search_api.harvest_backlinks`, Section 3.1's
  union of a form page's and its site root's backlinks.
* :class:`repro.webgraph.crawler.Crawler` — BFS crawler that locates form
  pages in the graph.
* :mod:`repro.webgraph.form_classifier` — searchable vs non-searchable.
"""

from repro.webgraph.crawler import CrawlResult, Crawler
from repro.webgraph.form_classifier import classify_form, is_searchable
from repro.webgraph.graph import WebGraph, WebPage
from repro.webgraph.search_api import SimulatedSearchEngine, harvest_backlinks
from repro.webgraph.urls import host_of, root_url_of, same_site

__all__ = [
    "CrawlResult",
    "Crawler",
    "classify_form",
    "is_searchable",
    "WebGraph",
    "WebPage",
    "SimulatedSearchEngine",
    "harvest_backlinks",
    "host_of",
    "root_url_of",
    "same_site",
]
