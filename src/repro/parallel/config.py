"""Execution planning for parallel ingestion.

:class:`ParallelConfig` is the user-facing knob (threaded through
:class:`~repro.core.config.CAFCConfig`, the CLI ``--workers`` flag, and
the service); :meth:`ParallelConfig.pool_size` turns it into the pool
size for one run.

The plan is deliberately conservative: parallelism only pays when there
are enough pages to amortize pool startup and pickling, and a pool with
one usable CPU is pure overhead, so the map runs serially whenever
either condition fails.
"""

import os
from dataclasses import dataclass

#: Below this many pending items the map stays serial: pool startup
#: plus per-page pickling costs more than the analysis itself.
MIN_PARALLEL_PAGES = 64

#: ``workers=0`` pools only from this many pending pages: on two CPUs a
#: pool x2 fit of ``webgen.stream`` pages beat serial in wall time in
#: 7 of 7 interleaved pairs at 1,000 pages, but in 6 of 7 at 700 (8% at
#: the median) and 5 of 7 at 454 (docs/INGESTION.md).
MIN_AUTO_PARALLEL_PAGES = 1000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a pinned process counts only its CPUs), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass
class ParallelConfig:
    """Tunables for the parallel ingestion engine.

    Attributes
    ----------
    workers:
        Pool size.  ``1``, the default, always runs serially — no pool
        is ever spawned; on two CPUs a pool was not faster than serial
        beyond run-to-run spread (docs/PERFORMANCE.md).  ``0`` means
        "one per usable CPU" (the process's CPU affinity where the
        platform reports it, else ``os.cpu_count()``), from
        :data:`MIN_AUTO_PARALLEL_PAGES` pending pages on.  Page
        analysis runs on a process pool (see docs/INGESTION.md for why
        not threads); :func:`~repro.parallel.ingest.parallel_map` runs
        its callables on threads.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else usable_cpus()

    def pool_size(self, n_items: int) -> int:
        """Workers for a run over ``n_items``; ``1`` means serial."""
        workers = self.effective_workers()
        floor = MIN_AUTO_PARALLEL_PAGES if self.workers == 0 else MIN_PARALLEL_PAGES
        if workers <= 1 or n_items < floor:
            return 1
        return workers

    # ----------------------------------------------------------------
    # Serialization (snapshot / CAFCConfig support).
    # ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"workers": self.workers}

    @classmethod
    def from_dict(cls, state: dict) -> "ParallelConfig":
        # Other keys (knobs that older snapshots and configs carried)
        # are ignored, so those files load unchanged.
        return cls(workers=int(state.get("workers", cls.workers)))
