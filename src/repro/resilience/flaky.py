"""The backlink seam: a fault-injecting engine wrapper and its cure.

:class:`FlakySearchEngine` turns any ``link:`` engine (the simulated
one, in this repo) into the unreliable upstream the paper actually
faced: each ``link_query`` crosses the ``"search.link_query"`` seam of
a :class:`~repro.resilience.faults.FaultPlan` and may raise a
transient error, stall-and-timeout, rate-limit, or fail permanently.
The crossing is keyed by the queried URL, so which query draws which
fault does not depend on how concurrent harvesting threads interleave.

:class:`ResilientSearchEngine` is the production-side wrapper: it
drives any engine (flaky or not) through a
:class:`~repro.resilience.retry.RetryPolicy` and a
:class:`~repro.resilience.retry.CircuitBreaker` and **never raises** —
a query that cannot be answered degrades to an empty backlink list,
exactly the shape the paper's own data had ("AltaVista returned no
backlinks for over 15% of forms"), so everything downstream (hub
clustering, CAFC-CH seeding) already knows how to cope.  The
:class:`HarvestReport` tells callers how much degradation happened.
"""

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.resilience.faults import FaultError, FaultPlan
from repro.resilience.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryError,
    RetryPolicy,
)


class FlakySearchEngine:
    """Inject faults in front of a ``link:`` engine.

    Exposes the same query surface as
    :class:`~repro.webgraph.search_api.SimulatedSearchEngine`
    (``link_query``), consulting ``plan`` at seam ``seam`` before every
    underlying query.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        seam: str = "search.link_query",
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.seam = seam

    @property
    def query_count(self) -> int:
        """Queries that reached the underlying engine."""
        return self.inner.query_count

    def link_query(self, url: str) -> List[str]:
        self.plan.check(self.seam, key=url)
        return self.inner.link_query(url)


@dataclass
class HarvestReport:
    """What resilient harvesting had to absorb (thread-safe counters)."""

    queries: int = 0
    retried: int = 0
    failures: int = 0          # queries degraded to [] after giving up
    rejected: int = 0          # refused fast by an open circuit
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _bump(self, **amounts: int) -> None:
        with self._lock:
            for name, amount in amounts.items():
                setattr(self, name, getattr(self, name) + amount)

    @property
    def degraded_rate(self) -> float:
        """Fraction of queries that came back empty for resilience
        reasons (failures + circuit rejections)."""
        with self._lock:
            if self.queries == 0:
                return 0.0
            return (self.failures + self.rejected) / self.queries

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "queries": self.queries,
                "retried": self.retried,
                "failures": self.failures,
                "rejected": self.rejected,
            }


class ResilientSearchEngine:
    """Retry/backoff + circuit breaking over any ``link:`` engine.

    Drop-in for the places that consume an engine (corpus assembly, hub
    harvesting): same ``link_query`` surface, but failures degrade to
    ``[]`` instead of propagating.  With a healthy inner engine the
    output is **identical** to calling it directly — the wrapper adds
    no reordering, no caching, no loss.

    Parameters
    ----------
    inner:
        The engine to protect (possibly a :class:`FlakySearchEngine`).
    policy:
        Retry schedule for transient/timeout/rate-limit faults.
    breaker:
        Shared-upstream circuit breaker; ``None`` disables breaking.
    sleep:
        Injectable sleep for the backoff (tests pass a no-op).
    """

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self._sleep = sleep
        self.report = HarvestReport()

    def link_query(self, url: str) -> List[str]:
        """``link:url`` with retries; degrades to ``[]`` on give-up."""
        self.report._bump(queries=1)
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            self.report._bump(rejected=1)
            return []

        def on_retry(attempt: int, exc: BaseException) -> None:
            self.report._bump(retried=1)

        try:
            result = self.policy.call(
                self.inner.link_query, url, sleep=self._sleep,
                on_retry=on_retry,
            )
        except (RetryError, FaultError, CircuitOpenError):
            if breaker is not None:
                breaker.record_failure()
            self.report._bump(failures=1)
            return []
        if breaker is not None:
            breaker.record_success()
        return result
