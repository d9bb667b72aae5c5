"""Resilience primitives — fault plans, supervised workers, directory
lifecycle, CAFC-CH degradation.

Fault schedules are pure functions of (seed, seam, crossing), so the
same plan always fires the same crossings.
"""

import logging
import threading

import pytest

from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.hubs import backlink_coverage
from repro.core.pipeline import CAFCPipeline
from repro.resilience import (
    STATS,
    FaultError,
    FaultPlan,
    FaultSpec,
    InjectedTimeout,
    PermanentFault,
    SupervisedWorker,
    TransientFault,
    active_plan,
    get_active_plan,
    inject,
)
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot


def fire_pattern(plan: FaultPlan, seam: str, crossings: int) -> list:
    """Which of ``crossings`` consecutive crossings raise (True/False)."""
    pattern = []
    for _ in range(crossings):
        try:
            plan.check(seam)
            pattern.append(False)
        except FaultError:
            pattern.append(True)
    return pattern


# ---------------------------------------------------------------------
# Fault specs and plans.
# ---------------------------------------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("s", kind="explode")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec("s", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec("s", probability=-0.1)

    def test_negative_after_and_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("s", after=-1)
        with pytest.raises(ValueError):
            FaultSpec("s", delay=-0.5)


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        spec = FaultSpec("seam", "transient", probability=0.3)
        first = fire_pattern(FaultPlan([spec], seed=7), "seam", 200)
        second = fire_pattern(FaultPlan([spec], seed=7), "seam", 200)
        assert first == second
        assert any(first) and not all(first)

    def test_different_seed_different_schedule(self):
        spec = FaultSpec("seam", "transient", probability=0.3)
        a = fire_pattern(FaultPlan([spec], seed=1), "seam", 200)
        b = fire_pattern(FaultPlan([spec], seed=2), "seam", 200)
        assert a != b

    def test_kinds_map_to_exception_types(self):
        cases = [
            ("transient", TransientFault),
            ("timeout", InjectedTimeout),
            ("permanent", PermanentFault),
        ]
        for kind, exc_type in cases:
            plan = FaultPlan([FaultSpec("seam", kind)], seed=0)
            with pytest.raises(exc_type) as info:
                plan.check("seam")
            assert isinstance(info.value, FaultError)
            assert info.value.seam == "seam"

    def test_max_fires_caps_the_spec(self):
        plan = FaultPlan([FaultSpec("seam", max_fires=2)], seed=0)
        pattern = fire_pattern(plan, "seam", 10)
        assert pattern == [True, True] + [False] * 8
        assert plan.fires("seam") == 2

    def test_after_skips_early_crossings(self):
        plan = FaultPlan([FaultSpec("seam", after=3)], seed=0)
        pattern = fire_pattern(plan, "seam", 6)
        assert pattern == [False, False, False, True, True, True]

    def test_counters_and_describe(self):
        plan = FaultPlan([FaultSpec("a")], seed=5)
        fire_pattern(plan, "a", 3)
        fire_pattern(plan, "b", 2)
        assert plan.crossings("a") == 3
        assert plan.crossings("b") == 2
        assert plan.fires("a") == 3
        assert plan.fires() == 3
        described = plan.describe()
        assert described["seed"] == 5
        assert described["crossings"] == {"a": 3, "b": 2}

    def test_arm_is_chainable(self):
        plan = FaultPlan(seed=0).arm(FaultSpec("seam"))
        assert len(plan.specs) == 1
        with pytest.raises(TransientFault):
            plan.check("seam")

    def test_unarmed_seams_pass_through(self):
        plan = FaultPlan([FaultSpec("other")], seed=0)
        plan.check("seam")  # no spec here: must not raise
        assert plan.crossings("seam") == 1

    def test_default_chaos_covers_every_seam(self):
        plan = FaultPlan.default_chaos(7)
        seams = {spec.seam for spec in plan.specs}
        assert seams == {
            "snapshot.save",
            "journal.append",
            "lease.read",
            "lease.renew",
        }


class TestAmbientPlan:
    def test_inject_is_noop_when_unarmed(self):
        assert get_active_plan() is None
        inject("anything")  # must not raise

    def test_active_plan_arms_and_restores(self):
        plan = FaultPlan([FaultSpec("seam")], seed=0)
        with active_plan(plan):
            assert get_active_plan() is plan
            with pytest.raises(TransientFault):
                inject("seam")
        assert get_active_plan() is None
        inject("seam")  # disarmed again

    def test_active_plan_restores_on_error(self):
        plan = FaultPlan(seed=0)
        with pytest.raises(RuntimeError):
            with active_plan(plan):
                raise RuntimeError("boom")
        assert get_active_plan() is None


# ---------------------------------------------------------------------
# Supervised workers.
# ---------------------------------------------------------------------


class Flaky:
    """A callable raising ``exc`` ``failures`` times, then returning."""

    def __init__(self, failures, exc):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return "ok"


class TestSupervisedWorker:
    def test_crashes_restart_then_complete(self):
        before = STATS.get("worker_restarts")
        done = threading.Event()
        exits = []
        fn = Flaky(failures=2, exc=RuntimeError)

        def target():
            fn()
            done.set()

        worker = SupervisedWorker(
            target, name="t", backoff_base=0.001, on_exit=lambda: exits.append(1)
        ).start()
        assert done.wait(5.0)
        worker.stop()
        assert worker.restarts == 2
        assert not worker.gave_up
        assert exits == [1]
        assert STATS.get("worker_restarts") >= before + 2

    def test_gives_up_after_max_restarts(self, caplog):
        exits = []

        def always_broken():
            raise RuntimeError("broken")

        with caplog.at_level(logging.ERROR, logger="repro.resilience"):
            worker = SupervisedWorker(
                always_broken, name="doomed", backoff_base=0.001,
                max_restarts=2, on_exit=lambda: exits.append(1),
            ).start()
            deadline = threading.Event()
            for _ in range(500):
                if worker.gave_up:
                    break
                deadline.wait(0.01)
        worker.stop()
        assert worker.gave_up
        assert worker.restarts == 2
        assert isinstance(worker.last_error, RuntimeError)
        assert exits == [1]
        assert any("gave up" in rec.message for rec in caplog.records)

    def test_stop_wakes_backoff_immediately(self):
        def always_broken():
            raise RuntimeError("broken")

        worker = SupervisedWorker(
            always_broken, name="slow", backoff_base=60.0
        ).start()
        for _ in range(500):
            if worker.restarts >= 1:
                break
            threading.Event().wait(0.01)
        worker.stop(timeout=5.0)
        assert not worker.alive

    def test_on_crash_callback_sees_the_exception(self):
        seen = []
        fn = Flaky(failures=1, exc=ValueError)
        worker = SupervisedWorker(
            lambda: fn() and None, name="cb", backoff_base=0.001,
            on_crash=lambda n, exc: seen.append((n, type(exc))),
        ).start()
        for _ in range(500):
            if not worker.alive:
                break
            threading.Event().wait(0.01)
        worker.stop()
        assert seen == [(1, ValueError)]


# ---------------------------------------------------------------------
# Directory lifecycle + CAFC-CH degradation.
# ---------------------------------------------------------------------


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


class TestDirectoryLifecycle:
    def test_close_is_idempotent(self, small_snapshot):
        directory = FormDirectory.from_snapshot(
            small_snapshot, auto_recluster=False
        )
        directory.close()
        directory.close()  # second close must be a no-op

    def test_close_safe_on_partially_constructed(self):
        # __init__ never ran: the getattr guards must still hold.
        directory = FormDirectory.__new__(FormDirectory)
        directory.close()

    def test_context_manager_closes(self, small_snapshot):
        with FormDirectory.from_snapshot(
            small_snapshot, auto_recluster=False
        ) as directory:
            assert directory.health_state() == "ok"
        assert directory._closed


class TestCafcChDegradation:
    def test_default_still_raises(self, small_pages):
        config = CAFCConfig(k=8, min_hub_cardinality=10_000)
        with pytest.raises(ValueError):
            cafc_ch(small_pages, config)

    def test_fallback_degrades_with_warning_and_counter(
        self, small_pages, caplog
    ):
        before = STATS.get("degraded_fallbacks")
        config = CAFCConfig(k=8, min_hub_cardinality=10_000)
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            result = cafc_ch(small_pages, config, fallback=True)
        assert result.degraded
        assert result.selected_seeds == []
        assert result.degraded_reason
        assert len(result.kmeans.clustering.clusters) == config.k
        assert STATS.get("degraded_fallbacks") == before + 1
        assert any("degraded" in rec.message for rec in caplog.records)

    def test_fallback_untouched_when_hubs_suffice(self, small_pages):
        healthy = cafc_ch(small_pages, SMALL_CONFIG)
        guarded = cafc_ch(small_pages, SMALL_CONFIG, fallback=True)
        assert not guarded.degraded
        assert guarded.kmeans.clustering.clusters == (
            healthy.kmeans.clustering.clusters
        )

    def test_backlink_coverage(self, small_pages):
        coverage = backlink_coverage(small_pages)
        assert 0.0 < coverage <= 1.0
        assert backlink_coverage([]) == 0.0
