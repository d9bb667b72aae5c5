"""Resilience primitives — fault plans, retry/backoff, circuit breaking,
the backlink-seam wrappers, supervised workers, CAFC-CH degradation.

Everything here runs without real sleeping: policies take an injectable
sleep, breakers an injectable clock, and fault schedules are pure
functions of (seed, seam, crossing), so the same plan always fires the
same crossings.
"""

import logging
import threading

import pytest

from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.hubs import backlink_coverage, harvest_hub_evidence
from repro.core.pipeline import CAFCPipeline
from repro.resilience import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    STATS,
    CircuitBreaker,
    CircuitOpenError,
    FaultError,
    FaultPlan,
    FaultSpec,
    FlakySearchEngine,
    InjectedTimeout,
    PermanentFault,
    RateLimitFault,
    ResilientSearchEngine,
    RetryError,
    RetryPolicy,
    SupervisedWorker,
    TransientFault,
    active_plan,
    get_active_plan,
    inject,
)
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.webgraph.search_api import harvest_backlinks


def no_sleep(_delay: float) -> None:
    """Injectable sleep that doesn't."""


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
            ("transient", TransientFault, True),
            ("timeout", InjectedTimeout, True),
            ("rate_limit", RateLimitFault, True),
            ("permanent", PermanentFault, False),
        ]
        for kind, exc_type, retryable in cases:
            plan = FaultPlan([FaultSpec("seam", kind)], seed=0)
            with pytest.raises(exc_type) as info:
                plan.check("seam")
            assert info.value.retryable is retryable
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
            "search.link_query",
            "directory.vectorize",
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
# Retry policy.
# ---------------------------------------------------------------------


class Flaky:
    """A callable failing ``failures`` times before returning ``value``."""

    def __init__(self, failures, exc=TransientFault, value="ok"):
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return self.value


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_attempts=4, seed=3)
        fn = Flaky(failures=2)
        slept = []
        assert policy.call(fn, sleep=slept.append) == "ok"
        assert fn.calls == 3
        assert slept == policy.delays()[:2]

    def test_exhaustion_raises_retry_error_chained(self):
        policy = RetryPolicy(max_attempts=3)
        fn = Flaky(failures=99)
        with pytest.raises(RetryError) as info:
            policy.call(fn, sleep=no_sleep)
        assert info.value.attempts == 3
        assert isinstance(info.value.last, TransientFault)
        assert info.value.__cause__ is info.value.last
        assert fn.calls == 3

    def test_permanent_fault_not_retried(self):
        policy = RetryPolicy(max_attempts=5)
        fn = Flaky(failures=99, exc=PermanentFault)
        slept = []
        with pytest.raises(PermanentFault):
            policy.call(fn, sleep=slept.append)
        assert fn.calls == 1
        assert slept == []

    def test_rate_limit_hint_floors_the_delay(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)

        def throttled():
            raise RateLimitFault("slow down", retry_after=9.0)

        slept = []
        with pytest.raises(RetryError):
            policy.call(throttled, sleep=slept.append)
        assert slept and slept[0] >= 9.0

    def test_deadline_caps_total_sleeping(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, jitter=0.0, deadline=2.5
        )
        fn = Flaky(failures=99)
        slept = []
        with pytest.raises(RetryError) as info:
            policy.call(fn, sleep=slept.append)
        # 1.0 + 2.0 fits the 2.5s budget... no: 1.0 fits, 1.0+2.0 > 2.5.
        assert info.value.attempts < policy.max_attempts
        assert sum(slept) <= policy.deadline

    def test_delays_deterministic_and_jitter_bounded(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.05, multiplier=2.0,
            max_delay=2.0, jitter=0.5, seed=11,
        )
        first, second = policy.delays(), policy.delays()
        assert first == second
        for n, delay in enumerate(first):
            raw = min(0.05 * 2.0**n, 2.0)
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_on_retry_callback_and_stats(self):
        before = STATS.get("retry_attempts")
        policy = RetryPolicy(max_attempts=3)
        seen = []
        policy.call(
            Flaky(failures=2), sleep=no_sleep,
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [1, 2]
        assert STATS.get("retry_attempts") == before + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)


# ---------------------------------------------------------------------
# Circuit breaker.
# ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, reset=30.0):
        clock = FakeClock()
        return CircuitBreaker(
            failure_threshold=threshold, reset_timeout=reset, clock=clock
        ), clock

    def test_consecutive_failures_trip_open(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state_code == CIRCUIT_CLOSED
        breaker.record_failure()
        assert breaker.state_code == CIRCUIT_OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state_code == CIRCUIT_CLOSED

    def test_half_open_admits_one_probe(self):
        breaker, clock = self.make(threshold=1, reset=30.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 31.0
        assert breaker.state_code == CIRCUIT_HALF_OPEN
        assert breaker.allow()          # the probe
        assert not breaker.allow()      # only one at a time

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1)
        breaker.record_failure()
        clock.now += 31.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state_code == CIRCUIT_CLOSED

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1)
        breaker.record_failure()
        clock.now += 31.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state_code == CIRCUIT_OPEN
        assert not breaker.allow()

    def test_call_refuses_fast_when_open(self):
        breaker, _ = self.make(threshold=1)

        def boom():
            raise TransientFault("down")

        with pytest.raises(TransientFault):
            breaker.call(boom)
        calls = []
        with pytest.raises(CircuitOpenError):
            breaker.call(calls.append, "never")
        assert calls == []

    def test_state_names(self):
        breaker, _ = self.make(threshold=1)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)


# ---------------------------------------------------------------------
# The backlink seam: flaky + resilient engine wrappers.
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(small_web):
    return small_web.search_engine()


@pytest.fixture(scope="module")
def form_urls(small_web):
    return [page.url for page in small_web.raw_pages()][:12]


class TestFlakySearchEngine:
    def test_healthy_plan_is_transparent(self, engine, form_urls):
        flaky = FlakySearchEngine(engine, FaultPlan(seed=0))
        for url in form_urls:
            assert flaky.link_query(url) == engine.link_query(url)
        assert flaky.query_count == engine.query_count

    def test_faults_fire_per_plan(self, engine, form_urls):
        plan = FaultPlan([FaultSpec("search.link_query", "permanent")], seed=0)
        flaky = FlakySearchEngine(engine, plan)
        with pytest.raises(PermanentFault):
            flaky.link_query(form_urls[0])
        assert plan.fires("search.link_query") == 1

    def test_harvest_falls_back_to_root(self, engine, small_web):
        flaky = FlakySearchEngine(engine, FaultPlan(seed=0))
        raw = small_web.raw_pages()[0]
        direct = harvest_backlinks(engine, raw.url, "")
        assert harvest_backlinks(flaky, raw.url, "") == direct


class TestResilientSearchEngine:
    def test_transient_faults_are_retried_through(self, engine, form_urls):
        plan = FaultPlan(
            [FaultSpec("search.link_query", "transient", max_fires=2)], seed=0
        )
        resilient = ResilientSearchEngine(
            FlakySearchEngine(engine, plan), sleep=no_sleep
        )
        url = form_urls[0]
        assert resilient.link_query(url) == engine.link_query(url)
        report = resilient.report.as_dict()
        assert report["retried"] == 2
        assert report["failures"] == 0

    def test_never_raises_degrades_to_empty(self, engine, form_urls):
        plan = FaultPlan([FaultSpec("search.link_query", "permanent")], seed=0)
        resilient = ResilientSearchEngine(
            FlakySearchEngine(engine, plan), sleep=no_sleep
        )
        for url in form_urls[:4]:
            assert resilient.link_query(url) == []
        report = resilient.report.as_dict()
        assert report["failures"] == 4
        assert resilient.report.degraded_rate == 1.0

    def test_open_breaker_rejects_without_touching_inner(
        self, engine, form_urls
    ):
        plan = FaultPlan([FaultSpec("search.link_query", "permanent")], seed=0)
        flaky = FlakySearchEngine(engine, plan)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=1000.0, clock=lambda: 0.0
        )
        resilient = ResilientSearchEngine(flaky, breaker=breaker, sleep=no_sleep)
        resilient.link_query(form_urls[0])
        resilient.link_query(form_urls[1])
        assert breaker.state_code == CIRCUIT_OPEN
        crossings_before = plan.crossings("search.link_query")
        assert resilient.link_query(form_urls[2]) == []
        assert plan.crossings("search.link_query") == crossings_before
        assert resilient.report.rejected == 1

    def test_no_fault_parity_with_plain_engine(self, engine, small_web):
        resilient = ResilientSearchEngine(engine, sleep=no_sleep)
        for raw in small_web.raw_pages()[:10]:
            assert harvest_backlinks(resilient, raw.url, "") == (
                harvest_backlinks(engine, raw.url, "")
            )
        assert resilient.report.failures == 0


class TestHarvestHubEvidence:
    def test_healthy_harvest_matches_direct(self, engine, form_urls):
        requests = [(url, "") for url in form_urls]
        harvested, wrapper = harvest_hub_evidence(engine, requests)
        for url in form_urls:
            assert harvested[url] == harvest_backlinks(engine, url, "")
        assert wrapper.report.failures == 0
        assert wrapper.report.queries >= len(form_urls)

    def test_dead_engine_degrades_everything(self, engine, form_urls):
        plan = FaultPlan([FaultSpec("search.link_query", "permanent")], seed=0)
        flaky = FlakySearchEngine(engine, plan)
        resilient = ResilientSearchEngine(flaky, sleep=no_sleep)
        requests = [(url, "") for url in form_urls]
        harvested, wrapper = harvest_hub_evidence(resilient, requests)
        assert all(backlinks == [] for backlinks in harvested.values())
        assert wrapper.report.degraded_rate == 1.0


# ---------------------------------------------------------------------
# Supervised workers.
# ---------------------------------------------------------------------


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
