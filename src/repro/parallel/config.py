"""Execution planning for parallel ingestion.

:class:`ParallelConfig` is the user-facing knob pair (threaded through
:class:`~repro.core.config.CAFCConfig`, the CLI ``--workers`` /
``--no-cache`` flags, and the service); :meth:`ParallelConfig.pool_size`
turns it into the pool size for one run.

The plan is deliberately conservative: parallelism only pays when there
are enough pages to amortize pool startup and pickling, and a pool with
one usable CPU is pure overhead, so the map runs serially whenever
either condition fails.
"""

import os
from dataclasses import dataclass

#: Below this many pending items the map stays serial: pool startup
#: plus per-page pickling costs more than the analysis itself.
MIN_AUTO_PARALLEL_PAGES = 64


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
        Pool size; ``0`` means "one per usable CPU" (the process's CPU
        affinity where the platform reports it, else ``os.cpu_count()``).
        ``1`` always runs serially — no pool is ever spawned.  Page
        analysis runs on a process pool (see docs/INGESTION.md for why
        not threads); :func:`~repro.parallel.ingest.parallel_map` runs
        its callables on threads.
    use_cache:
        Reuse cached per-page analyses (in-memory, keyed by content
        hash).  Disable to force re-analysis of every page.
    """

    workers: int = 0
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else usable_cpus()

    def pool_size(self, n_items: int) -> int:
        """Workers for a run over ``n_items``; ``1`` means serial."""
        workers = self.effective_workers()
        if workers <= 1 or n_items < MIN_AUTO_PARALLEL_PAGES:
            return 1
        return workers

    # ----------------------------------------------------------------
    # Serialization (snapshot / CAFCConfig support).
    # ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"workers": self.workers, "use_cache": self.use_cache}

    @classmethod
    def from_dict(cls, state: dict) -> "ParallelConfig":
        # Other keys (knobs that older snapshots and configs carried)
        # are ignored, so those files load unchanged.
        defaults = cls()
        return cls(
            workers=int(state.get("workers", defaults.workers)),
            use_cache=bool(state.get("use_cache", defaults.use_cache)),
        )
