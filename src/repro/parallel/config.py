"""Execution planning for parallel ingestion.

:class:`ParallelConfig` is the user-facing knob set (threaded through
:class:`~repro.core.config.CAFCConfig`, the CLI ``--workers`` flags, and
the service); :meth:`ParallelConfig.resolve` turns it into a concrete
:class:`ResolvedPlan` for one corpus — which executor actually runs,
with how many workers and what chunk size.

The ``auto`` policy is deliberately conservative: parallelism only pays
when there are enough pages to amortize pool startup and pickling, and a
process pool with one usable CPU is pure overhead, so ``auto`` degrades
to serial whenever either condition fails.  Forcing
``executor="process"`` (or ``"thread"``) always honors the request —
that is what the parity tests rely on.
"""

import os
from dataclasses import dataclass
from typing import Optional

#: Below this corpus size ``auto`` stays serial: pool startup plus
#: per-page pickling costs more than the analysis itself.
MIN_AUTO_PARALLEL_PAGES = 64

_EXECUTORS = ("auto", "serial", "thread", "process")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a pinned process counts only its CPUs), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ResolvedPlan:
    """The concrete execution decision for one ingestion run."""

    kind: str          # "serial" | "thread" | "process"
    workers: int       # pool size (1 for serial)
    chunk_size: int    # pages per worker task

    @property
    def is_serial(self) -> bool:
        return self.kind == "serial"

    def describe(self) -> str:
        """Human-readable plan, e.g. ``process x4 (chunk 16)``."""
        if self.is_serial:
            return "serial"
        return f"{self.kind} x{self.workers} (chunk {self.chunk_size})"


@dataclass
class ParallelConfig:
    """Tunables for the parallel ingestion engine.

    Attributes
    ----------
    workers:
        Pool size; ``0`` means "one per usable CPU" (the process's CPU
        affinity where the platform reports it, else ``os.cpu_count()``).
        ``1`` always runs serially — no pool is ever spawned.
    chunk_size:
        Pages per worker task; ``0`` picks a size that gives each worker
        several chunks (for load balancing) without drowning in pickling
        overhead.
    executor:
        ``"auto"`` (serial for small corpora or one usable CPU,
        process pool otherwise), ``"serial"``, ``"thread"`` or
        ``"process"``.  Threads share the parent's stem cache but stay
        GIL-bound on this pure-Python workload; processes scale with
        cores but pay fork + pickle costs.  See docs/INGESTION.md.
    use_cache:
        Reuse cached per-page analyses (in-memory, keyed by content
        hash).  Disable to force re-analysis of every page.
    cache_dir:
        Optional directory for the on-disk analysis cache; re-runs and
        experiment batteries skip re-parsing unchanged pages.  ``None``
        disables disk caching.
    """

    workers: int = 0
    chunk_size: int = 0
    executor: str = "auto"
    use_cache: bool = True
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{_EXECUTORS}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if self.chunk_size < 0:
            raise ValueError("chunk_size must be >= 0 (0 = auto)")

    # ----------------------------------------------------------------
    # Planning.
    # ----------------------------------------------------------------

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else usable_cpus()

    def resolve(self, n_items: int) -> ResolvedPlan:
        """Decide how ``n_items`` pages actually get analyzed."""
        workers = self.effective_workers()
        kind = self.executor
        if workers <= 1:
            # The satellite contract: workers=1 never spawns a pool,
            # whatever the requested executor.
            kind = "serial"
        elif kind == "auto":
            kind = "process" if n_items >= MIN_AUTO_PARALLEL_PAGES else "serial"
        if kind == "serial" or n_items == 0:
            return ResolvedPlan(kind="serial", workers=1, chunk_size=n_items or 1)
        chunk = self.chunk_size
        if chunk <= 0:
            # ~4 chunks per worker, capped so pickled payloads stay small.
            chunk = max(1, min(32, -(-n_items // (workers * 4))))
        return ResolvedPlan(kind=kind, workers=workers, chunk_size=chunk)

    # ----------------------------------------------------------------
    # Serialization (snapshot / CAFCConfig support).
    # ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "executor": self.executor,
            "use_cache": self.use_cache,
            "cache_dir": self.cache_dir,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "ParallelConfig":
        defaults = cls()
        cache_dir = state.get("cache_dir", defaults.cache_dir)
        return cls(
            workers=int(state.get("workers", defaults.workers)),
            chunk_size=int(state.get("chunk_size", defaults.chunk_size)),
            executor=str(state.get("executor", defaults.executor)),
            use_cache=bool(state.get("use_cache", defaults.use_cache)),
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
