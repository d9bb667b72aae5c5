"""Pure helpers shared by the runner and its tests.

Nothing here touches the program under test, the clock or the disk:
arrival schedules, percentiles, due-time latency, span self time and
name validation are plain functions of their arguments.
"""

import math
import random
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Names of metrics and workloads: a letter or digit, then up to 63 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Units: up to 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def arrival_offsets(rate: float, seconds: float, seed: int) -> List[float]:
    """Poisson arrivals at ``rate`` per second over ``[0, seconds)``.

    The schedule is a pure function of its arguments, so two runs with
    the same seed offer the same load at the same instants.
    """
    if rate <= 0 or seconds <= 0:
        return []
    rng = random.Random(f"perfbench.arrivals:{seed}")
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def due_latency(due: float, done: float) -> float:
    """Latency charged from the instant a request was due, not sent.

    A request that waited for a busy connection, or behind a stalled
    server, is charged that wait.
    """
    return done - due


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in ``(0, 100]``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> Optional[int]:
    """The highest whole percentile that leaves ``min_beyond`` samples
    beyond it in ``n`` samples, or None when even p50 does not."""
    for p in range(99, 49, -1):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def min_samples_for(p: float, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """The fewest samples for which ``p`` leaves ``min_beyond`` beyond."""
    n = 1
    while samples_beyond(n, p) < min_beyond:
        n += 1
    return n


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover.

    Spans are dicts with ``id``, ``parent`` (an id or None), ``start``
    and ``end``.  Overlapping children are counted once, and a child
    that outlives its parent only covers the parent's own interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    out: Dict[int, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _covered(children.get(span["id"], ()), span["start"], span["end"])
        out[span["id"]] = max(0.0, duration - covered)
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
