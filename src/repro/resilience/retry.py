"""Retry primitives: exponential backoff with jitter, deadline budgets,
and a circuit breaker.

These are the generic half of the backlink-seam hardening: a
:class:`RetryPolicy` re-invokes a flaky call on retryable faults
(:class:`~repro.resilience.faults.TransientFault` and subclasses) with
exponentially growing, deterministically jittered delays, bounded by an
attempt cap and an optional wall-clock deadline; a
:class:`CircuitBreaker` stops hammering an upstream that is plainly down
and probes it again after a cool-off.

Determinism: jitter comes from a policy-owned ``random.Random(seed)``,
and both sleeping and the breaker's clock are injectable — tests run
the full schedule without waiting real time, and two runs of the same
seeded policy produce the same delays.
"""

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.resilience.faults import FaultError, RateLimitFault, TransientFault
from repro.resilience.stats import STATS


class RetryError(Exception):
    """A call failed through every allowed attempt.

    ``last`` is the final underlying exception (also chained as
    ``__cause__``); ``attempts`` how many invocations were made.
    """

    def __init__(self, message: str, attempts: int, last: BaseException):
        super().__init__(message)
        self.attempts = attempts
        self.last = last


class CircuitOpenError(FaultError):
    """Fail-fast: the breaker is open, the call was never attempted."""

    retryable = False


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline.

    Delay before attempt ``n`` (1-based; attempt 1 has no delay) is
    ``min(base_delay * multiplier**(n-2), max_delay)``, scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    A :class:`~repro.resilience.faults.RateLimitFault` carrying a
    ``retry_after`` hint raises the floor of the next delay to honor it.

    ``deadline`` caps the *total* sleeping budget in seconds: once the
    accumulated planned delays would exceed it, the policy gives up
    even if attempts remain — a slow-failing upstream cannot pin a
    request thread for minutes.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be non-negative")

    # -- schedule ------------------------------------------------------

    def delays(self) -> List[float]:
        """The planned sleep before each retry (length
        ``max_attempts - 1``), jittered deterministically from ``seed``."""
        rng = random.Random(self.seed)
        out: List[float] = []
        for n in range(self.max_attempts - 1):
            raw = min(self.base_delay * self.multiplier**n, self.max_delay)
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(raw * factor)
        return out

    # -- execution -----------------------------------------------------

    def call(
        self,
        fn: Callable,
        *args,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        **kwargs,
    ):
        """Invoke ``fn`` under this policy.

        Retryable failures (:class:`~repro.resilience.faults.
        TransientFault` and its subclasses) are retried per the schedule;
        anything else propagates immediately.  Exhaustion raises
        :class:`RetryError` chained to the last failure.
        """
        schedule = self.delays()
        slept = 0.0
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(*args, **kwargs)
            except TransientFault as exc:
                last = exc
                if attempt >= self.max_attempts:
                    break
                delay = schedule[attempt - 1]
                if isinstance(exc, RateLimitFault) and exc.retry_after > 0:
                    delay = max(delay, exc.retry_after)
                if (
                    self.deadline is not None
                    and slept + delay > self.deadline
                ):
                    break
                STATS.inc("retry_attempts")
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(delay)
                slept += delay
        STATS.inc("retry_giveups")
        assert last is not None
        raise RetryError(
            f"{getattr(fn, '__name__', 'call')} failed after "
            f"{attempt} attempt(s): {last}",
            attempts=attempt,
            last=last,
        ) from last


#: Numeric encoding of breaker states for the ``circuit_state`` gauge.
CIRCUIT_CLOSED, CIRCUIT_HALF_OPEN, CIRCUIT_OPEN = 0, 1, 2
_STATE_NAMES = {
    CIRCUIT_CLOSED: "closed",
    CIRCUIT_HALF_OPEN: "half_open",
    CIRCUIT_OPEN: "open",
}


class CircuitBreaker:
    """A thread-safe three-state circuit breaker.

    CLOSED: calls flow; ``failure_threshold`` *consecutive* failures trip
    to OPEN.  OPEN: :meth:`allow` refuses until ``reset_timeout`` seconds
    pass, then one probe is admitted (HALF_OPEN).  HALF_OPEN: a success
    closes the circuit, a failure re-opens it and restarts the cool-off.

    The clock is injectable (monotonic seconds) so tests step time.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CIRCUIT_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    # -- state ---------------------------------------------------------

    @property
    def state_code(self) -> int:
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def state(self) -> str:
        return _STATE_NAMES[self.state_code]

    def _maybe_half_open(self) -> None:
        if (
            self._state == CIRCUIT_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = CIRCUIT_HALF_OPEN
            self._probing = False

    # -- protocol ------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now (admits one HALF_OPEN
        probe at a time)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CIRCUIT_CLOSED:
                return True
            if self._state == CIRCUIT_HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CIRCUIT_CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state == CIRCUIT_HALF_OPEN:
                self._trip()
                return
            self._failures += 1
            if self._state == CIRCUIT_CLOSED and (
                self._failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = CIRCUIT_OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        STATS.inc("circuit_opens")

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` through the breaker: refuse fast when open, record
        the outcome otherwise."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit open; retry after {self.reset_timeout:.1f}s"
            )
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.record_failure()
            raise
        self.record_success()
        return result
