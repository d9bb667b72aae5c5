"""repro.resilience — fault injection, supervision, journaling.

A served directory does real I/O (snapshots, the write-ahead journal,
journal shipping, router fan-out, the lease store), and any of it can
fail.  This package makes that failure a first-class, testable input:

* :mod:`repro.resilience.faults` — a seedable :class:`FaultPlan`
  injecting named faults (transient / timeout / permanent) at the I/O
  seams, deterministically reproducible from a seed;
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
    TransientFault,
    active_plan,
    get_active_plan,
    inject,
    install_plan,
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
from repro.resilience.stats import STATS, ResilienceStats
from repro.resilience.supervisor import SupervisedWorker

__all__ = [
    "DirectoryJournal",
    "FAULT_KINDS",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedTimeout",
    "JournalError",
    "PermanentFault",
    "ResilienceStats",
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
