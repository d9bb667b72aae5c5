"""Corpus orchestration: the full synthetic benchmark web.

:func:`generate_benchmark` builds the whole artifact — 454 form pages
with their sites, hubs, directories and a simulated search engine —
deterministically from a seed.  :class:`SyntheticWeb` is the handle the
experiments use: it yields :class:`~repro.core.form_page.RawFormPage`
inputs exactly the way the paper assembled its dataset (HTML plus
harvested backlinks, the site root's included).
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.form_page import RawFormPage
from repro.parallel.config import ParallelConfig
from repro.webgen.config import GeneratorConfig
from repro.webgen.domains import DOMAINS, domain_by_name
from repro.webgen.hubs_gen import generate_hubs
from repro.webgen.sites import Site, build_site
from repro.webgraph.graph import WebGraph
from repro.webgraph.search_api import SimulatedSearchEngine, harvest_backlinks

# Size-class mix for multi-attribute forms (Table 1 coverage).
_SIZE_CLASS_WEIGHTS = (("small", 0.30), ("medium", 0.40), ("large", 0.30))

# Which domains cross-sell which (prose cross-talk): travel sites mention
# each other, entertainment stores carry both media, rental desks talk
# about cars.
_CROSSTALK_SIBLINGS = {
    "airfare": ("hotel", "rental"),
    "hotel": ("airfare", "rental"),
    "rental": ("airfare", "hotel", "auto"),
    "auto": ("rental",),
    "music": ("movie",),
    "movie": ("music",),
    "book": ("movie", "music"),
}


@dataclass
class SyntheticWeb:
    """The generated benchmark: graph + sites + gold labels."""

    config: GeneratorConfig
    graph: WebGraph
    sites: List[Site]
    orphan_urls: frozenset = frozenset()
    _engine: Optional[SimulatedSearchEngine] = field(default=None, repr=False)

    # ----------------------------------------------------------------
    # Accessors.
    # ----------------------------------------------------------------

    @property
    def n_form_pages(self) -> int:
        return len(self.sites)

    def labels(self) -> List[str]:
        """Gold domain labels, aligned with :meth:`raw_pages` order."""
        return [site.domain_name for site in self.sites]

    def form_page_urls(self) -> List[str]:
        return [site.form_page_url for site in self.sites]

    def search_engine(self) -> SimulatedSearchEngine:
        """The (cached) simulated search engine over this web."""
        if self._engine is None:
            self._engine = SimulatedSearchEngine(
                self.graph,
                coverage=self.config.engine_coverage,
                max_results=self.config.max_backlinks,
                seed=self.config.engine_seed,
            )
        return self._engine

    # ----------------------------------------------------------------
    # Dataset assembly (what the paper's Section 4.1 setup produces).
    # ----------------------------------------------------------------

    def raw_pages(
        self,
        include_anchor_text: bool = False,
        parallel: Optional[ParallelConfig] = None,
        engine=None,
    ) -> List[RawFormPage]:
        """The clustering input: HTML + harvested backlinks + gold label.

        Backlinks are harvested from the simulated engine with
        :func:`~repro.webgraph.search_api.harvest_backlinks`: the sorted
        union of ``link:`` on the form page and ``link:`` on the site
        root, capped at the engine's ``max_results`` — Section 3.1's
        mitigation for backlink incompleteness.

        ``include_anchor_text`` additionally fetches each backlink page
        and collects the anchor strings of its links to the form page or
        site root (the Section-6 anchor-text extension).

        ``parallel`` harvests per-site backlinks (and anchor text)
        concurrently; per-site assembly is an independent pure read of
        the graph and the engine's deterministic index, and results are
        collected in site order, so the output is identical to serial.

        ``engine`` substitutes another engine for the cached simulated
        one — the robustness sweep passes a
        :class:`~repro.webgraph.search_api.SimulatedSearchEngine` with a
        lower ``coverage`` to model a less complete ``link:`` index.
        """
        from repro.link_analysis.anchor_text import harvest_anchor_texts
        from repro.parallel.ingest import parallel_map

        if engine is None:
            engine = self.search_engine()

        def assemble(site: Site) -> RawFormPage:
            backlinks = harvest_backlinks(
                engine, site.form_page_url, site.root_url
            )
            page = self.graph.get(site.form_page_url)
            if page is None:
                raise RuntimeError(
                    f"form page missing from graph: {site.form_page_url}"
                )
            anchor_texts: List[str] = []
            if include_anchor_text:
                anchor_texts = harvest_anchor_texts(
                    self.graph,
                    site.form_page_url,
                    backlinks,
                    also_match=[site.root_url],
                )
            return RawFormPage(
                url=site.form_page_url,
                html=page.html,
                backlinks=backlinks,
                label=site.domain_name,
                anchor_texts=anchor_texts,
            )

        return parallel_map(assemble, self.sites, parallel)

    def profile(self) -> Dict[str, int]:
        """Corpus profile counts (the Section 4.1 numbers)."""
        single = sum(1 for site in self.sites if site.is_single_attribute)
        return {
            "form_pages": len(self.sites),
            "single_attribute": single,
            "multi_attribute": len(self.sites) - single,
            "domains": len({site.domain_name for site in self.sites}),
            "graph_pages": len(self.graph),
            "orphans": len(self.orphan_urls),
        }


def _choose_size_class(rng: random.Random) -> str:
    roll = rng.random()
    cumulative = 0.0
    for name, weight in _SIZE_CLASS_WEIGHTS:
        cumulative += weight
        if roll < cumulative:
            return name
    return _SIZE_CLASS_WEIGHTS[-1][0]


def generate_benchmark(
    seed: int = 42, config: Optional[GeneratorConfig] = None
) -> SyntheticWeb:
    """Generate the benchmark web.

    ``seed`` overrides ``config.seed`` for the common "just give me a
    corpus" call; pass a full :class:`GeneratorConfig` for anything
    fancier.  The output is a pure function of the effective config.
    """
    if config is None:
        config = GeneratorConfig(seed=seed)
    rng = random.Random(config.seed)
    used_hosts: set = set()

    music = domain_by_name("music")
    movie = domain_by_name("movie")
    half_mixed = config.mixed_entertainment_pages // 2

    sites: List[Site] = []
    for domain in DOMAINS:
        budget = config.pages_per_domain.get(domain.name, 0)
        n_keyword = min(config.single_attribute_per_domain, budget)
        n_mixed = 0
        if domain.name in ("music", "movie"):
            n_mixed = min(half_mixed, budget - n_keyword)
        n_multi = budget - n_keyword - n_mixed

        siblings = _CROSSTALK_SIBLINGS.get(domain.name, ())
        for _ in range(n_multi):
            crosstalk_with = None
            if siblings and rng.random() < config.crosstalk_fraction:
                crosstalk_with = domain_by_name(rng.choice(siblings))
            sites.append(
                build_site(
                    domain, config, rng, used_hosts,
                    form_kind="multi",
                    size_class=_choose_size_class(rng),
                    crosstalk_with=crosstalk_with,
                )
            )
        for _ in range(n_keyword):
            sites.append(
                build_site(domain, config, rng, used_hosts, form_kind="keyword")
            )
        for _ in range(n_mixed):
            # The form searches both databases; the gold label stays the
            # site's primary domain (how the paper's corpus was labelled).
            other = movie if domain.name == "music" else music
            sites.append(
                build_site(
                    domain, config, rng, used_hosts,
                    form_kind="mixed",
                    mixed_with=other,
                    label_override=domain.name,
                )
            )

    # Stable, reproducible shuffle so domains are interleaved like a
    # crawler's output rather than blocked.
    rng.shuffle(sites)

    # Orphans: form pages that no hub will ever cite.
    n_orphans = round(config.orphan_fraction * len(sites))
    orphan_sites = set(rng.sample(range(len(sites)), n_orphans))
    orphan_urls = frozenset(sites[i].form_page_url for i in orphan_sites)

    sites_by_domain: Dict[str, List[Site]] = {}
    hub_eligible: Dict[str, List[Site]] = {}
    for index, site in enumerate(sites):
        sites_by_domain.setdefault(site.domain_name, []).append(site)
        if index not in orphan_sites:
            hub_eligible.setdefault(site.domain_name, []).append(site)

    hubs = generate_hubs(sites_by_domain, hub_eligible, config, rng)

    graph = WebGraph()
    for site in sites:
        for page in site.pages:
            graph.add_page(page)
    for hub in hubs:
        graph.add_page(hub)

    return SyntheticWeb(
        config=config, graph=graph, sites=sites, orphan_urls=orphan_urls
    )
