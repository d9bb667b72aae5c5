"""Anchor-text harvesting — the other Section-6 link feature.

The text of links *pointing at* a form page ("Acme flight deals") is
often a crisp description of the database behind it; search engines have
used anchor text this way since Google's first paper (the CAFC paper
cites exactly that precedent for its LOC weighting).

``harvest_anchor_texts`` collects, for a target URL, the anchor strings
of links to it found on its (known) backlink pages.
``augment_pages_with_anchors`` folds those strings into already
vectorized form pages by re-weighting — callers who want anchor features
from the start pass ``anchor_texts`` into the vectorizer path instead
(see ``SyntheticWeb.raw_pages`` + ``FormPageVectorizer``).
"""

from typing import Iterable, List

from repro.html.parser import parse_html
from repro.webgraph.graph import WebGraph


def _anchors_in(html: str) -> List[tuple]:
    """(href, anchor text) pairs in a page."""
    root = parse_html(html)
    return [
        (element.get("href"), element.text_content().strip())
        for element in root.find_all("a")
        if element.get("href")
    ]


def harvest_anchor_texts(
    graph: WebGraph,
    target_url: str,
    backlink_urls: Iterable[str],
    also_match: Iterable[str] = (),
) -> List[str]:
    """Anchor strings of links to ``target_url`` on its backlink pages.

    ``also_match`` lists alternate URLs that count as the same target
    (typically the site root, since directories often link to
    homepages).  Backlink pages missing from the graph are skipped — a
    real harvester cannot fetch every referrer either.
    """
    targets = {target_url} | set(also_match)
    anchors: List[str] = []
    for backlink_url in backlink_urls:
        page = graph.get(backlink_url)
        if page is None:
            continue
        for href, text in _anchors_in(page.html):
            if href in targets and text:
                anchors.append(text)
    return anchors
