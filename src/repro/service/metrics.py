"""Service observability — Prometheus text-format metrics, stdlib only.

A tiny metric model shaped after the Prometheus client conventions:

* :class:`Counter` — monotonically increasing totals (requests served,
  batches flushed, cache hits);
* :class:`Gauge` — point-in-time values, either set directly or read
  from a callback at render time (managed pages, cohesion);
* :class:`Histogram` — cumulative fixed-bucket distributions
  (per-endpoint request latency, batch sizes).

All metrics live in a :class:`MetricsRegistry` and render together via
:meth:`MetricsRegistry.render` in the Prometheus exposition text format
(version 0.0.4), which is what ``GET /metrics`` returns.  Every mutation
takes one shared registry lock — the operations are single dict/float
updates, far cheaper than the request work around them.
"""

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds) — sub-millisecond cache hits up to
#: multi-second re-clustering pauses.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default count buckets (e.g. shards answering one fanned-out request).
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing total."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value; ``set_function`` reads live at render time."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._fn = None

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            return 0.0


class Histogram:
    """Cumulative fixed-bucket distribution (Prometheus semantics)."""

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]) -> None:
        self._lock = lock
        self.uppers: List[float] = sorted(float(b) for b in buckets)
        self._counts = [0] * len(self.uppers)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            # Store per-bucket counts; the renderer accumulates them
            # into the cumulative form the exposition format wants.
            for index, upper in enumerate(self.uppers):
                if value <= upper:
                    self._counts[index] += 1
                    break

    def state(self) -> Tuple[List[int], float, int]:
        """(per-bucket counts, sum, count) — a consistent copy."""
        with self._lock:
            return list(self._counts), self._sum, self._count


class _Family:
    """One metric name: help text, type, and per-label-set children."""

    def __init__(self, name: str, help_text: str, kind: str) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.children: Dict[_LabelKey, object] = {}


class MetricsRegistry:
    """A set of metric families rendering to Prometheus text format."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ----------------------------------------------------------------
    # Registration / lookup (idempotent — callers just ask every time).
    # ----------------------------------------------------------------

    def _family(self, name: str, help_text: str, kind: str) -> _Family:
        full = f"{self.namespace}_{name}" if self.namespace else name
        with self._lock:
            family = self._families.get(full)
            if family is None:
                family = _Family(full, help_text, kind)
                self._families[full] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {full!r} already registered as {family.kind}"
                )
            return family

    def _child(self, family: _Family, labels: Dict[str, str], factory):
        key = _label_key(labels)
        with self._lock:
            child = family.children.get(key)
            if child is None:
                child = factory()
                family.children[key] = child
            return child

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        family = self._family(name, help_text, "counter")
        return self._child(family, labels, lambda: Counter(self._lock))

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        family = self._family(name, help_text, "gauge")
        return self._child(family, labels, lambda: Gauge(self._lock))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        family = self._family(name, help_text, "histogram")
        return self._child(
            family, labels, lambda: Histogram(self._lock, buckets)
        )

    # ----------------------------------------------------------------
    # Rendering.
    # ----------------------------------------------------------------

    def render(self) -> str:
        """The whole registry in Prometheus exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            families = [
                (family, list(family.children.items()))
                for family in self._families.values()
            ]
        for family, children in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in children:
                lines.extend(self._render_child(family, key, child))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_child(
        family: _Family, key: _LabelKey, child: object
    ) -> Iterable[str]:
        if isinstance(child, Histogram):
            counts, total, count = child.state()
            cumulative = 0
            for upper, bucket_count in zip(child.uppers, counts):
                cumulative += bucket_count
                labels = _render_labels(key, [("le", _format_value(upper))])
                yield f"{family.name}_bucket{labels} {cumulative}"
            labels = _render_labels(key, [("le", "+Inf")])
            yield f"{family.name}_bucket{labels} {count}"
            yield f"{family.name}_sum{_render_labels(key)} {_format_value(total)}"
            yield f"{family.name}_count{_render_labels(key)} {count}"
        else:
            value = child.value  # type: ignore[attr-defined]
            yield f"{family.name}{_render_labels(key)} {_format_value(value)}"


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
