"""Chaos soaks: seeded fault plans over a real corpus.

Two invariants, both from docs/RESILIENCE.md:

* **No-fault parity** — running corpus assembly through the resilient
  wrapper with nothing armed yields *identical* raw pages (hence
  identical vectors, entropy and F-measure downstream): the hardening
  adds no reordering, caching, or loss.
* **Faults never crash the pipeline** — under `FaultPlan.default_chaos`
  (and even a permanently dead backlink API) CAFC-CH completes or
  degrades to CAFC-C with a warning, the directory keeps serving, and
  the health/metrics endpoints keep rendering.
"""

import sys

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.parallel.config import ParallelConfig
from repro.resilience import (
    FaultError,
    FaultPlan,
    FaultSpec,
    FlakySearchEngine,
    ResilientSearchEngine,
    RetryError,
    active_plan,
)
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)

CHAOS_SEEDS = (3, 7, 11)


def no_sleep(_delay: float) -> None:
    """Backoff without wall-clock time."""


def resilient_over(engine, plan):
    return ResilientSearchEngine(FlakySearchEngine(engine, plan), sleep=no_sleep)


# ---------------------------------------------------------------------
# Corpus assembly through the wrappers.
# ---------------------------------------------------------------------


class TestNoFaultParity:
    def test_resilient_raw_pages_identical_to_plain(self, small_web):
        plain = small_web.raw_pages()
        wrapped = small_web.raw_pages(
            engine=ResilientSearchEngine(
                small_web.search_engine(), sleep=no_sleep
            )
        )
        assert wrapped == plain

    def test_unfired_plan_identical_to_plain(self, small_web):
        plain = small_web.raw_pages()
        wrapped = small_web.raw_pages(
            engine=resilient_over(small_web.search_engine(), FaultPlan(seed=0))
        )
        assert wrapped == plain

    def test_parity_implies_identical_clustering(self, small_web):
        plain = CAFCPipeline(SMALL_CONFIG).organize(small_web.raw_pages())
        wrapped_raw = small_web.raw_pages(
            engine=ResilientSearchEngine(
                small_web.search_engine(), sleep=no_sleep
            )
        )
        wrapped = CAFCPipeline(SMALL_CONFIG).organize(wrapped_raw)
        assert [c.urls for c in wrapped.clusters] == (
            [c.urls for c in plain.clusters]
        )
        assert not wrapped.degraded


class TestChaosPipeline:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_default_chaos_never_crashes_the_pipeline(self, small_web, seed):
        plan = FaultPlan.default_chaos(seed)
        raw = small_web.raw_pages(
            engine=resilient_over(small_web.search_engine(), plan)
        )
        assert len(raw) == len(small_web.raw_pages())
        result = CAFCPipeline(SMALL_CONFIG).organize(raw)
        assert result.n_clusters == SMALL_CONFIG.k
        assert result.n_pages == len(raw)

    def test_dead_backlink_api_degrades_gracefully(self, small_web):
        plan = FaultPlan(
            [FaultSpec("search.link_query", "permanent")], seed=0
        )
        raw = small_web.raw_pages(
            engine=resilient_over(small_web.search_engine(), plan)
        )
        assert all(page.backlinks == [] for page in raw)
        result = CAFCPipeline(SMALL_CONFIG).organize(raw)
        # Every hub vanished: the pipeline must fall back, not fail.
        assert result.degraded
        assert result.n_clusters == SMALL_CONFIG.k
        assert "fallback" in result.algorithm

    def test_same_seed_same_degradation(self, small_web):
        def harvest(seed):
            engine = resilient_over(
                small_web.search_engine(), FaultPlan.default_chaos(seed)
            )
            pages = small_web.raw_pages(engine=engine)
            return [page.backlinks for page in pages], engine.report.as_dict()

        first_links, first_report = harvest(7)
        second_links, second_report = harvest(7)
        assert first_links == second_links
        assert first_report == second_report

    def test_threaded_harvest_matches_serial_under_forced_interleaving(
        self, small_web
    ):
        """Which backlink query draws which fault depends only on the
        seed, the URL and that URL's attempt number — not on how the
        harvesting threads happen to be scheduled."""

        def harvest(parallel):
            engine = resilient_over(
                small_web.search_engine(), FaultPlan.default_chaos(7)
            )
            pages = small_web.raw_pages(engine=engine, parallel=parallel)
            return [page.backlinks for page in pages], engine.report.as_dict()

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
        assert serial[1]["failures"] > 0, "the plan should bite"
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
        served = failed = 0
        with active_plan(FaultPlan.default_chaos(11)):
            for raw in probes:
                try:
                    outcome = directory.classify(raw)
                    assert 0 <= outcome.cluster < SMALL_CONFIG.k
                    served += 1
                except (RetryError, FaultError):
                    # A request may die in the resilience layer (503 at
                    # the HTTP face) — the directory must not corrupt.
                    failed += 1
            for raw in probes[:3]:
                try:
                    directory.add(raw)
                except (RetryError, FaultError):
                    pass
        assert served + failed == len(probes)
        assert served > 0

        # Disarmed, everything works and the state graded sanely.
        outcome = directory.classify(small_raw_pages[21])
        assert 0 <= outcome.cluster < SMALL_CONFIG.k
        stats = directory.stats()
        assert stats["state"] in ("ok", "degraded")
        assert stats["resilience"]["journaled"] is True

        rendered = directory.metrics.render()
        assert "faults_injected_total" in rendered
        assert "circuit_state" in rendered
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
