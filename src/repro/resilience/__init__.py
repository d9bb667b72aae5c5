"""repro.resilience — fault injection, retries, supervision, journaling.

The reproduction's pipeline was built against a *simulated* world where
every seam is infallible; the paper's world was not ("AltaVista
returned no backlinks for over 15% of forms", Section 3.1), and the
ROADMAP's production north-star is even less forgiving.  This package
makes failure a first-class, testable input:

* :mod:`repro.resilience.faults` — a seedable :class:`FaultPlan`
  injecting named faults (transient / timeout / rate-limit / permanent)
  at registered seams, deterministically reproducible from a seed;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff + jitter + deadline budgets) and :class:`CircuitBreaker`;
* :mod:`repro.resilience.flaky` — :class:`FlakySearchEngine` (the
  chaos wrapper over the ``link:`` API) and
  :class:`ResilientSearchEngine` (retry + breaker + degrade-to-empty,
  the production wrapper);
* :mod:`repro.resilience.supervisor` — :class:`SupervisedWorker`,
  restart-with-backoff for background threads;
* :mod:`repro.resilience.journal` — :class:`DirectoryJournal`, the
  crash-safe write-ahead log behind :class:`~repro.service.directory.
  FormDirectory` durability;
* :mod:`repro.resilience.stats` — process-wide counters the service
  layer exports on ``/metrics``.

See docs/RESILIENCE.md for the fault model and the degradation ladder.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultSpec,
    InjectedTimeout,
    PermanentFault,
    RateLimitFault,
    TransientFault,
    active_plan,
    get_active_plan,
    inject,
    install_plan,
)
from repro.resilience.flaky import (
    FlakySearchEngine,
    HarvestReport,
    ResilientSearchEngine,
)
from repro.resilience.journal import (
    DirectoryJournal,
    JournalError,
    StaleEpochError,
    decode_records,
    encode_record,
    open_journal,
    record_epoch,
)
from repro.resilience.retry import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    CircuitOpenError,
    RetryError,
    RetryPolicy,
)
from repro.resilience.stats import STATS, ResilienceStats
from repro.resilience.supervisor import SupervisedWorker

__all__ = [
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "DirectoryJournal",
    "FAULT_KINDS",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "FlakySearchEngine",
    "HarvestReport",
    "InjectedTimeout",
    "JournalError",
    "PermanentFault",
    "RateLimitFault",
    "ResilienceStats",
    "ResilientSearchEngine",
    "RetryError",
    "RetryPolicy",
    "STATS",
    "StaleEpochError",
    "SupervisedWorker",
    "TransientFault",
    "active_plan",
    "decode_records",
    "encode_record",
    "get_active_plan",
    "inject",
    "install_plan",
    "open_journal",
    "record_epoch",
]
