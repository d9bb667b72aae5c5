"""The simulated search-engine ``link:`` API (Section 3.1's data source).

The paper retrieves backlinks "through the link: API provided by search
engines such as AltaVista, Google and Yahoo!" and observes two properties
this simulator reproduces:

* **result caps** — at most ``max_results`` backlinks per query (the
  paper extracted a maximum of 100 per page);
* **incompleteness** — "AltaVista returned no backlinks for over 15% of
  forms"; the simulator indexes only a deterministic pseudo-random subset
  of the graph's linking pages, so a configurable fraction of queries
  come back empty.

Determinism: the indexed subset is a pure function of (page URL, seed),
so experiments are exactly reproducible.
"""

import hashlib
import threading
from typing import List

from repro.webgraph.graph import WebGraph


def _stable_fraction(key: str, seed: int) -> float:
    """Map (key, seed) to a uniform-ish float in [0, 1), stably across
    processes (Python's ``hash`` is salted; hashlib is not)."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class SimulatedSearchEngine:
    """A ``link:`` query facility over a :class:`WebGraph`.

    Parameters
    ----------
    graph:
        The underlying web snapshot.
    coverage:
        Fraction of linking pages the engine has indexed.  Backlinks from
        unindexed pages are invisible, which makes some queries return
        nothing at all — the paper's >15% empty-result phenomenon.
    max_results:
        Cap on returned backlinks per query (AltaVista-style).
    seed:
        Index-sampling seed.
    """

    def __init__(
        self,
        graph: WebGraph,
        coverage: float = 0.8,
        max_results: int = 100,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        if max_results < 1:
            raise ValueError("max_results must be positive")
        self.graph = graph
        self.coverage = coverage
        self.max_results = max_results
        self.seed = seed
        self.query_count = 0
        # Parallel backlink harvesting queries from several threads; the
        # counter is the only mutable state, so guard just it.
        self._count_lock = threading.Lock()

    def _indexed(self, url: str) -> bool:
        """Whether the engine crawled (and thus indexed links from) ``url``."""
        return _stable_fraction(url, self.seed) < self.coverage

    def link_query(self, url: str) -> List[str]:
        """``link:url`` — backlinks the engine knows about, capped.

        Results are URL-sorted then truncated, which matches how engines
        return a stable prefix of a larger result set.
        """
        with self._count_lock:
            self.query_count += 1
        indexed = [
            source for source in self.graph.backlinks(url) if self._indexed(source)
        ]
        return indexed[: self.max_results]


def harvest_backlinks(engine, url: str, root_url: str) -> List[str]:
    """Section 3.1's harvesting rule for one form page.

    The sorted union of ``link:url`` and ``link:root_url`` on
    ``engine``, capped at ``engine.max_results`` ("we also retrieved
    backlinks to the root page of the site where the form is located").
    """
    merged = set(engine.link_query(url)) | set(engine.link_query(root_url))
    return sorted(merged)[: engine.max_results]
