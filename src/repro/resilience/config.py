"""Resilience tunables, embedded in :class:`~repro.core.config.CAFCConfig`.

One flat record of the retry/breaker defaults a run uses, JSON
round-trippable so snapshots built under one policy serve under the
same one after a cold start.  Chaos is not a config field: ``repro
serve --chaos SEED`` arms :meth:`~repro.resilience.faults.FaultPlan.
default_chaos` directly.
"""

from dataclasses import dataclass
from typing import Optional

from repro.resilience.retry import CircuitBreaker, RetryPolicy


@dataclass
class ResilienceConfig:
    """Retry and breaker knobs (see docs/RESILIENCE.md)."""

    retry_max_attempts: int = 4
    retry_base_delay: float = 0.05
    retry_multiplier: float = 2.0
    retry_max_delay: float = 2.0
    retry_jitter: float = 0.5
    retry_deadline: Optional[float] = 10.0
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 30.0

    def __post_init__(self) -> None:
        # Delegate range validation to the primitives themselves so the
        # rules cannot drift apart.
        self.policy()
        self.breaker()

    def policy(self, seed: int = 0) -> RetryPolicy:
        """A :class:`RetryPolicy` with these settings (``seed`` varies
        the jitter stream per call site)."""
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            base_delay=self.retry_base_delay,
            multiplier=self.retry_multiplier,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
            deadline=self.retry_deadline,
            seed=seed,
        )

    def breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout=self.breaker_reset_timeout,
        )

    def to_dict(self) -> dict:
        return {
            "retry_max_attempts": self.retry_max_attempts,
            "retry_base_delay": self.retry_base_delay,
            "retry_multiplier": self.retry_multiplier,
            "retry_max_delay": self.retry_max_delay,
            "retry_jitter": self.retry_jitter,
            "retry_deadline": self.retry_deadline,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_reset_timeout": self.breaker_reset_timeout,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "ResilienceConfig":
        """Rebuild a config from :meth:`to_dict` data; the ``"chaos_seed"``
        key older snapshots wrote is ignored."""
        defaults = cls()
        deadline = state.get("retry_deadline", defaults.retry_deadline)
        return cls(
            retry_max_attempts=int(
                state.get("retry_max_attempts", defaults.retry_max_attempts)
            ),
            retry_base_delay=float(
                state.get("retry_base_delay", defaults.retry_base_delay)
            ),
            retry_multiplier=float(
                state.get("retry_multiplier", defaults.retry_multiplier)
            ),
            retry_max_delay=float(
                state.get("retry_max_delay", defaults.retry_max_delay)
            ),
            retry_jitter=float(
                state.get("retry_jitter", defaults.retry_jitter)
            ),
            retry_deadline=None if deadline is None else float(deadline),
            breaker_failure_threshold=int(
                state.get(
                    "breaker_failure_threshold",
                    defaults.breaker_failure_threshold,
                )
            ),
            breaker_reset_timeout=float(
                state.get(
                    "breaker_reset_timeout", defaults.breaker_reset_timeout
                )
            ),
        )
