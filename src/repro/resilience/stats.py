"""Process-wide resilience counters.

The core layers (``repro.core``, ``repro.webgen``) must not depend on
:mod:`repro.service.metrics`, yet their degradation events need to show
up on ``/metrics``.  The bridge is this tiny thread-safe counter bag:
core code bumps named counters here, and the service layer registers
``set_function`` gauges over them at instrumentation time.

All counters are monotonically increasing over process lifetime (tests
use :meth:`ResilienceStats.reset`, guarded to their own fixtures).
"""

import threading
from typing import Dict


class ResilienceStats:
    """A thread-safe bag of named monotonic counters."""

    #: Counters every fresh bag starts with (scrapes see stable names).
    KNOWN = (
        "degraded_fallbacks",   # CAFC-CH -> CAFC-C random-seeding falls
        "worker_restarts",      # supervised background-worker restarts
        "faults_injected",      # FaultPlan fires (chaos only)
        "journal_replays",      # directory recoveries that replayed a WAL
        "segments_shipped",     # sealed journal segments served to replicas
        "promotions",           # replica -> leader promotions
        "fencing_rejections",   # writes refused for a stale epoch / lost lease
        "stale_records_dropped", # zombie-epoch records skipped on replay/apply
        "failovers",            # automatic leader failovers completed
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in self.KNOWN}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero everything — test isolation only."""
        with self._lock:
            self._counts = {name: 0 for name in self.KNOWN}


#: The process-wide bag ``/metrics`` scrapes.
STATS = ResilienceStats()
