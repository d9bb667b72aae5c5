"""Deterministic fault injection — the chaos half of the resilience layer.

A served directory has seams where I/O can fail for real: snapshot
I/O, the write-ahead journal, journal shipping, router fan-out and the
lease store.  This module lets tests (and ``repro serve --chaos``)
*arm* those seams with named faults and replay the exact same failure
schedule from a seed:

* a **seam** is a string naming an injection point (``"snapshot.save"``,
  ``"snapshot.load"``, ``"journal.append"``, ``"replication.ship"``,
  ``"router.fanout"``, and the lease-store seams ``"lease.acquire"`` /
  ``"lease.renew"`` / ``"lease.read"`` — :mod:`repro.distrib.fence`);
  production code crosses a seam by calling :func:`inject`, which is a
  few-nanosecond no-op unless a plan is armed;
* a :class:`FaultSpec` describes one fault at one seam — its kind
  (transient / timeout / permanent), firing probability, and how many
  times it may fire;
* a :class:`FaultPlan` holds the specs and decides, **deterministically
  from (seed, seam, crossing index)**, whether a given crossing fires.
  Two runs with the same plan see byte-identical fault schedules, which
  is what makes chaos tests reproducible and failures bisectable.

Faults surface as :class:`FaultError` subclasses
(:class:`TransientFault`, :class:`InjectedTimeout`,
:class:`PermanentFault`); callers at each seam catch :class:`FaultError`.
"""

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.resilience.stats import STATS

#: The fault kinds a spec may inject.
FAULT_KINDS = ("transient", "timeout", "permanent")


class FaultError(Exception):
    """Base class of every injected fault."""

    def __init__(self, message: str, seam: str = "?") -> None:
        super().__init__(message)
        self.seam = seam


class TransientFault(FaultError):
    """A failure expected to clear on its own (flaky disk or network)."""


class InjectedTimeout(TransientFault):
    """A call that stalled past its deadline."""


class PermanentFault(FaultError):
    """A failure that will not clear (gone, unsupported)."""


_KIND_EXCEPTIONS = {
    "transient": TransientFault,
    "timeout": InjectedTimeout,
    "permanent": PermanentFault,
}


def _stable_fraction(seed: int, seam: str, crossing: int) -> float:
    """Uniform-ish float in [0, 1), a pure function of its inputs —
    salted ``hash()`` would break cross-process reproducibility."""
    digest = hashlib.sha256(f"{seed}:{seam}:{crossing}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultSpec:
    """One fault armed at one seam.

    Attributes
    ----------
    seam:
        The injection-point name this spec applies to.
    kind:
        ``"transient"``, ``"timeout"`` or ``"permanent"``.
    probability:
        Chance a crossing fires, decided deterministically from the
        plan seed and the crossing index.
    max_fires:
        Stop firing after this many hits (None = unlimited) — how a
        plan expresses "fails twice, then recovers".
    after:
        Skip the first ``after`` crossings entirely (lets a plan target
        mid-run state, e.g. "the third snapshot save").
    delay:
        For ``timeout`` faults: seconds to stall before raising (keep 0
        in tests).
    """

    seam: str
    kind: str = "transient"
    probability: float = 1.0
    max_fires: Optional[int] = None
    after: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


class FaultPlan:
    """A seeded, thread-safe schedule of faults over named seams.

    The decision for the *i*-th crossing of a seam is a pure function of
    ``(seed, seam, i)``, so concurrent runs that cross seams in the same
    per-seam order observe the same faults.  All bookkeeping (crossing
    counters, fire counts) is lock-guarded.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = seed
        self._specs: List[FaultSpec] = list(specs)
        self._lock = threading.Lock()
        self._crossings: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        self._spec_fires: Dict[int, int] = {}

    # -- composition --------------------------------------------------

    def arm(self, spec: FaultSpec) -> "FaultPlan":
        """Add a spec (chainable)."""
        with self._lock:
            self._specs.append(spec)
        return self

    @property
    def specs(self) -> List[FaultSpec]:
        with self._lock:
            return list(self._specs)

    # -- the injection point ------------------------------------------

    def check(self, seam: str) -> None:
        """Cross ``seam``: raise (or stall then raise) when a spec fires.

        At most one spec fires per crossing — the first armed spec, in
        arming order, whose probability admits this crossing.
        """
        with self._lock:
            crossing = self._crossings.get(seam, 0)
            self._crossings[seam] = crossing + 1
            fired: Optional[FaultSpec] = None
            for index, spec in enumerate(self._specs):
                if spec.seam != seam or crossing < spec.after:
                    continue
                limit = spec.max_fires
                if limit is not None and self._spec_fires.get(index, 0) >= limit:
                    continue
                roll = _stable_fraction(self.seed, f"{seam}#{index}", crossing)
                if roll < spec.probability:
                    fired = spec
                    self._spec_fires[index] = self._spec_fires.get(index, 0) + 1
                    self._fires[seam] = self._fires.get(seam, 0) + 1
                    break
        if fired is None:
            return
        STATS.inc("faults_injected")
        if fired.kind == "timeout" and fired.delay > 0:
            time.sleep(fired.delay)
        exc_type = _KIND_EXCEPTIONS[fired.kind]
        raise exc_type(
            f"injected {fired.kind} fault at seam {seam!r} "
            f"(plan seed {self.seed})",
            seam=seam,
        )

    # -- observability -------------------------------------------------

    def crossings(self, seam: str) -> int:
        with self._lock:
            return self._crossings.get(seam, 0)

    def fires(self, seam: Optional[str] = None) -> int:
        with self._lock:
            if seam is not None:
                return self._fires.get(seam, 0)
            return sum(self._fires.values())

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [
                    {"seam": s.seam, "kind": s.kind, "p": s.probability}
                    for s in self._specs
                ],
                "crossings": dict(self._crossings),
                "fires": dict(self._fires),
            }

    # -- canned plans --------------------------------------------------

    @classmethod
    def default_chaos(cls, seed: int) -> "FaultPlan":
        """The ``repro serve --chaos <seed>`` soak plan: transient
        trouble on the I/O seams a served directory crosses —
        survivable by design, so a soak run should stay up (degraded at
        worst)."""
        return cls(
            [
                FaultSpec("snapshot.save", "transient", probability=0.10),
                FaultSpec("journal.append", "transient", probability=0.02),
                # Lease-store seams only cross in fenced deployments;
                # the specs are inert everywhere else.
                FaultSpec("lease.renew", "transient", probability=0.05),
                FaultSpec("lease.read", "transient", probability=0.05),
            ],
            seed=seed,
        )


# ----------------------------------------------------------------------
# The ambient plan: deep seams (snapshot I/O, the journal, the lease
# store) cannot thread a plan argument through every caller, so
# they consult a process-wide slot instead.  ``inject`` is the only
# thing hot paths call; with no plan armed it is one attribute read.
# ----------------------------------------------------------------------

_active_plan: Optional[FaultPlan] = None
_active_lock = threading.Lock()


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Arm ``plan`` process-wide; returns the previously armed plan."""
    global _active_plan
    with _active_lock:
        previous = _active_plan
        _active_plan = plan
    return previous


def get_active_plan() -> Optional[FaultPlan]:
    return _active_plan


@contextmanager
def active_plan(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block (tests)."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def inject(seam: str) -> None:
    """Cross a named seam — raises when the armed plan says so."""
    plan = _active_plan
    if plan is not None:
        plan.check(seam)
