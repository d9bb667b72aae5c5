"""Chaos soaks: seeded fault plans and degraded backlink coverage over
a real corpus.

Two invariants, both from docs/RESILIENCE.md:

* **Coverage parity** — harvesting through a fresh engine built with
  the corpus's own settings, or with a chaos plan armed, yields
  *identical* raw pages (hence identical clustering downstream):
  harvesting crosses no fault seam and the engine's index is a pure
  function of its seed.
* **Incomplete backlinks never crash the pipeline** — at partial
  coverage CAFC-CH completes; at zero coverage every page has ``[]``
  backlinks and CAFC-CH degrades to CAFC-C.  Under
  ``FaultPlan.default_chaos`` the directory keeps classifying, writes
  fail only with the journal's :class:`FaultError`, and the
  health/metrics endpoints keep rendering.
"""

import sys

import pytest

from repro.core.config import CAFCConfig
from repro.core.form_page import RawFormPage
from repro.core.pipeline import CAFCPipeline
from repro.parallel.config import ParallelConfig
from repro.resilience import FaultError, FaultPlan, FaultSpec, active_plan
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.webgraph.search_api import SimulatedSearchEngine


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)

CHAOS_SEEDS = (3, 7, 11)


def engine_over(web, coverage=None, seed=None):
    """A fresh ``link:`` engine over ``web``, by default with the
    corpus's own coverage and seed."""
    config = web.config
    return SimulatedSearchEngine(
        web.graph,
        coverage=config.engine_coverage if coverage is None else coverage,
        max_results=config.max_backlinks,
        seed=config.engine_seed if seed is None else seed,
    )


# ---------------------------------------------------------------------
# Corpus assembly through other engines.
# ---------------------------------------------------------------------


class TestNoFaultParity:
    def test_fresh_engine_raw_pages_identical_to_cached(self, small_web):
        plain = small_web.raw_pages()
        fresh = small_web.raw_pages(engine=engine_over(small_web))
        assert fresh == plain

    def test_unfired_plan_identical_to_plain(self, small_web):
        plain = small_web.raw_pages()
        with active_plan(FaultPlan.default_chaos(7)) as plan:
            armed = small_web.raw_pages(engine=engine_over(small_web))
        assert armed == plain
        assert plan.fires() == 0

    def test_parity_implies_identical_clustering(self, small_web):
        plain = CAFCPipeline(SMALL_CONFIG).organize(small_web.raw_pages())
        fresh_raw = small_web.raw_pages(engine=engine_over(small_web))
        fresh = CAFCPipeline(SMALL_CONFIG).organize(fresh_raw)
        assert [c.urls for c in fresh.clusters] == (
            [c.urls for c in plain.clusters]
        )
        assert not fresh.degraded


class TestChaosPipeline:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_default_chaos_never_crashes_the_pipeline(self, small_web, seed):
        full = small_web.raw_pages()
        with active_plan(FaultPlan.default_chaos(seed)):
            raw = small_web.raw_pages(
                engine=engine_over(small_web, coverage=0.5, seed=seed)
            )
            result = CAFCPipeline(SMALL_CONFIG).organize(raw)
        assert len(raw) == len(full)
        assert sum(len(p.backlinks) for p in raw) < sum(
            len(p.backlinks) for p in full
        )
        assert result.n_clusters == SMALL_CONFIG.k
        assert result.n_pages == len(raw)

    def test_dead_backlink_api_degrades_gracefully(self, small_web):
        raw = small_web.raw_pages(engine=engine_over(small_web, coverage=0.0))
        assert all(page.backlinks == [] for page in raw)
        result = CAFCPipeline(SMALL_CONFIG).organize(raw)
        # Every hub vanished: the pipeline must fall back, not fail.
        assert result.degraded
        assert result.n_clusters == SMALL_CONFIG.k
        assert "fallback" in result.algorithm

    def test_same_seed_same_degradation(self, small_web):
        def harvest(seed):
            engine = engine_over(small_web, coverage=0.3, seed=seed)
            return [page.backlinks for page in small_web.raw_pages(engine=engine)]

        assert harvest(7) == harvest(7)
        assert harvest(7) != harvest(8)

    def test_threaded_harvest_matches_serial_under_forced_interleaving(
        self, small_web
    ):
        """Which backlinks a partial-coverage engine returns depends
        only on its seed and the queried URL — not on how the
        harvesting threads happen to be scheduled."""

        def harvest(parallel):
            engine = engine_over(small_web, coverage=0.3, seed=7)
            pages = small_web.raw_pages(engine=engine, parallel=parallel)
            return [page.backlinks for page in pages]

        serial = harvest(ParallelConfig(workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 64 sites: at or above MIN_PARALLEL_PAGES, so four
            # workers harvest on threads.
            threaded = [
                harvest(ParallelConfig(workers=4)) for _ in range(3)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert any(links == [] for links in serial), "coverage should bite"
        for run in threaded:
            assert run == serial


# ---------------------------------------------------------------------
# The directory under an ambient plan.
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


class TestChaosDirectory:
    def test_directory_serves_through_default_chaos(
        self, small_snapshot, small_raw_pages, tmp_path
    ):
        directory = FormDirectory.from_snapshot(
            small_snapshot,
            auto_recluster=False,
            cache_size=0,
            journal=str(tmp_path / "chaos.wal"),
        )
        probes = small_raw_pages[:20]
        new_pages = [
            RawFormPage(
                url=f"{raw.url}?chaos={index}", html=raw.html,
                backlinks=raw.backlinks, label=raw.label,
            )
            for index, raw in enumerate(probes)
        ]
        # default_chaos alone rarely touches the journal in 20 appends;
        # a second spec makes the append seam bite.
        plan = FaultPlan.default_chaos(11).arm(
            FaultSpec("journal.append", "transient", probability=0.5)
        )
        pages_before = directory.stats()["pages"]
        added, refused = [], []
        with active_plan(plan):
            for raw in probes:
                # Classify crosses no fault seam: it never fails.
                outcome = directory.classify(raw)
                assert 0 <= outcome.cluster < SMALL_CONFIG.k
            for raw in new_pages:
                try:
                    directory.add(raw)
                    added.append(raw.url)
                except FaultError as exc:
                    # A 503 at the HTTP face; nothing was applied.
                    assert exc.seam == "journal.append"
                    refused.append(raw.url)
        assert added and refused
        assert plan.fires("journal.append") == len(refused)

        # Disarmed, everything works and the state graded sanely: a
        # refused add left no trace, an acknowledged one is served.
        stats = directory.stats()
        assert stats["pages"] == pages_before + len(added)
        assert stats["state"] in ("ok", "degraded")
        assert stats["resilience"]["journaled"] is True
        assert stats["resilience"]["journal_records"] == len(added)
        assert not directory.remove(refused[0])
        assert directory.remove(added[0])
        outcome = directory.classify(small_raw_pages[21])
        assert 0 <= outcome.cluster < SMALL_CONFIG.k

        rendered = directory.metrics.render()
        assert "faults_injected_total" in rendered
        assert "degraded_mode" in rendered
        directory.close()

    def test_snapshot_save_faults_surface_cleanly(
        self, small_snapshot, tmp_path
    ):
        directory = FormDirectory.from_snapshot(
            small_snapshot, auto_recluster=False
        )
        plan = FaultPlan([FaultSpec("snapshot.save", "transient")], seed=0)
        target = tmp_path / "never.json.gz"
        with active_plan(plan):
            with pytest.raises(FaultError):
                directory.checkpoint(target)
        assert not target.exists()
        # The failure left the directory serving.
        assert directory.health_state() == "ok"
        directory.checkpoint(target)
        assert target.exists()
        directory.close()
