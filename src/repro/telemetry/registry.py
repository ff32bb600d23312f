"""Thread-safe process-wide metric registry with sliding-window stats.

Three instrument kinds, all label-aware:

``Counter``
    Monotone float; ``inc(amount)`` on the hot path, or
    ``set_total(value)`` when mirroring an external monotone source at
    scrape time (a collector).  Windowed per-second rates over the last
    1/5/15 minutes.

``Gauge``
    Last-value float; ``set`` / ``inc`` / ``dec``.

``Histogram``
    Fixed upper-bound buckets (seconds by default, matching the
    gateway's latency buckets) plus ``sum``/``count``, and a windowed
    ring from which p50/p95/p99 over the last 1/5/15 minutes are
    interpolated — no raw samples are retained.

Instrumented code reaches the registry through the ``repro.trace``
hooks (see :mod:`repro.telemetry.instruments`); enabling telemetry
connects them.  Every mutating method still begins ``if not _ENABLED:
return`` where ``_ENABLED`` is a module global, so direct updates
(collectors, live gauges) cost one global read when off.
``os.register_at_fork`` resets child copies — fresh locks, zeroed
values — so a forked pool worker never re-reports its parent's counts.

The sliding window is a ring of 60 slots x 15 s = 15 minutes.  Each
slot is tagged with its epoch (``now // 15``); writes lazily reset
slots left over from a previous lap, reads sum only slots whose epoch
falls inside the requested window.  The current partial slot is
included, so a "1 minute" window covers between 45 and 60 seconds of
wall clock — cheap, lock-free-read-friendly, and plenty for dashboards.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.trace.tracer import set_metric_sink

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "REGISTRY",
    "WINDOWS",
    "disable_telemetry",
    "enable_telemetry",
    "telemetry_enabled",
]

#: Window name -> span in seconds.  Ordered shortest-first everywhere.
WINDOWS: Dict[str, float] = {"1m": 60.0, "5m": 300.0, "15m": 900.0}

_SLOT_SECONDS = 15.0
_SLOT_COUNT = 60  # 60 x 15 s rings cover the longest window (15 m).

#: Histogram upper bounds in *seconds*; the same grid as the gateway's
#: ``LATENCY_BUCKETS_MS`` so JSON and Prometheus views agree.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_ENABLED = False

# Patchable in tests to drive the window ring with a fake clock.
_now = time.monotonic


def telemetry_enabled() -> bool:
    """True when metric hooks record (the disabled path is ~40 ns)."""
    return _ENABLED


def enable_telemetry() -> None:
    """Turn recording on process-wide (idempotent).

    Also connects the :mod:`repro.trace` hooks to the registry, so every
    instrumented span and event feeds its metric family.
    """
    from repro.telemetry.instruments import observe  # imports this module

    global _ENABLED
    _ENABLED = True
    set_metric_sink(observe)


def disable_telemetry() -> None:
    """Turn recording off process-wide (tests, benchmarks)."""
    global _ENABLED
    _ENABLED = False
    set_metric_sink(None)


def _quantile_from_buckets(
    bounds: Sequence[float],
    counts: Sequence[float],
    total: float,
    quantile: float,
) -> float:
    """Interpolate a quantile from non-cumulative bucket counts.

    Linear within the bucket (Prometheus ``histogram_quantile``
    semantics); observations beyond the last finite bound clamp to it.
    """
    if total <= 0:
        return 0.0
    rank = quantile * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count <= 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            if index >= len(bounds):  # +Inf bucket: clamp.
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            return lower + (upper - lower) * ((rank - previous) / count)
    return float(bounds[-1])


def _window_slots(epochs: List[int], window_seconds: float,
                  now: float) -> List[int]:
    """Ring slots whose epoch lies in the window ending at ``now``."""
    epoch = int(now // _SLOT_SECONDS)
    span = min(_SLOT_COUNT, max(1, int(window_seconds // _SLOT_SECONDS)))
    return [wanted % _SLOT_COUNT for wanted in range(epoch - span + 1, epoch + 1)
            if epochs[wanted % _SLOT_COUNT] == wanted]


class _ScalarRing:
    """Per-slot float accumulator for counter increments."""

    __slots__ = ("epochs", "values")

    def __init__(self) -> None:
        self.epochs = [-1] * _SLOT_COUNT
        self.values = [0.0] * _SLOT_COUNT

    def add(self, amount: float, now: float) -> None:
        epoch = int(now // _SLOT_SECONDS)
        slot = epoch % _SLOT_COUNT
        if self.epochs[slot] != epoch:
            self.epochs[slot] = epoch
            self.values[slot] = 0.0
        self.values[slot] += amount

    def total(self, window_seconds: float, now: float) -> float:
        total = 0.0
        for slot in _window_slots(self.epochs, window_seconds, now):
            total += self.values[slot]
        return total


class _HistogramRing:
    """Per-slot (bucket counts, sum, count) for windowed percentiles."""

    __slots__ = ("epochs", "buckets", "sums", "counts", "_width")

    def __init__(self, num_buckets: int) -> None:
        self._width = num_buckets
        self.epochs = [-1] * _SLOT_COUNT
        self.buckets = [[0] * num_buckets for _ in range(_SLOT_COUNT)]
        self.sums = [0.0] * _SLOT_COUNT
        self.counts = [0] * _SLOT_COUNT

    def add(self, bucket_index: int, value: float, now: float) -> None:
        epoch = int(now // _SLOT_SECONDS)
        slot = epoch % _SLOT_COUNT
        if self.epochs[slot] != epoch:
            self.epochs[slot] = epoch
            self.buckets[slot] = [0] * self._width
            self.sums[slot] = 0.0
            self.counts[slot] = 0
        self.buckets[slot][bucket_index] += 1
        self.sums[slot] += value
        self.counts[slot] += 1

    def merged(
        self, window_seconds: float, now: float,
    ) -> Tuple[List[int], float, int]:
        counts = [0] * self._width
        total_sum = 0.0
        total_count = 0
        for slot in _window_slots(self.epochs, window_seconds, now):
            slot_buckets = self.buckets[slot]
            for index in range(self._width):
                counts[index] += slot_buckets[index]
            total_sum += self.sums[slot]
            total_count += self.counts[slot]
        return counts, total_sum, total_count


class Counter:
    """A monotone counter child (one label combination)."""

    __slots__ = ("_lock", "value", "_ring")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        self._ring = _ScalarRing()

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount
            self._ring.add(amount, _now())

    def set_total(self, total: float) -> None:
        """Mirror an external monotone source (collector use).

        The delta since the last mirror lands in the window ring; a
        backwards step (source restarted) resets without going negative.
        """
        if not _ENABLED:
            return
        with self._lock:
            delta = total - self.value
            self.value = float(total)
            if delta > 0:
                self._ring.add(delta, _now())

    def rates(self) -> Dict[str, float]:
        """Per-second rate over each window."""
        now = _now()
        with self._lock:
            return {
                name: self._ring.total(seconds, now) / seconds
                for name, seconds in WINDOWS.items()
            }

    _reset = __init__

    def _snapshot(self) -> Dict[str, object]:
        return {"value": self.value, "rates": self.rates()}


class Gauge:
    """A last-value gauge child."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value -= amount

    _reset = __init__

    def _snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"value": self.value}


class Histogram:
    """A fixed-bucket histogram child with windowed percentiles."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count", "_ring")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        # counts[i] observations in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._ring = _HistogramRing(len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            self._ring.add(index, value, _now())

    def window_stats(self, window: str = "5m") -> Dict[str, float]:
        """``{count, sum, p50, p95, p99}`` over one named window."""
        now = _now()
        with self._lock:
            stats = self._window(WINDOWS[window], now)
        stats["count"] = float(stats["count"])
        return stats

    def _window(self, seconds: float, now: float) -> Dict[str, float]:
        counts, total_sum, total_count = self._ring.merged(seconds, now)
        return {
            "count": total_count,
            "sum": total_sum,
            "p50": _quantile_from_buckets(self.bounds, counts, total_count, 0.50),
            "p95": _quantile_from_buckets(self.bounds, counts, total_count, 0.95),
            "p99": _quantile_from_buckets(self.bounds, counts, total_count, 0.99),
        }

    def _reset(self) -> None:
        self.__init__(self.bounds)

    def _snapshot(self) -> Dict[str, object]:
        now = _now()
        with self._lock:
            lifetime = list(self.counts)
            total_sum = self.sum
            total_count = self.count
            windows = {name: self._window(seconds, now)
                       for name, seconds in WINDOWS.items()}
        cumulative = []
        running = 0
        for bound, bucket_count in zip(self.bounds, lifetime):
            running += bucket_count
            cumulative.append([bound, running])
        return {
            "buckets": cumulative,  # cumulative counts up to each bound
            "sum": total_sum,
            "count": total_count,
            "windows": windows,
        }


_CHILD_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """A named metric with a fixed label schema and per-label children."""

    __slots__ = ("name", "help", "kind", "labelnames", "_buckets",
                 "_lock", "_children", "_default")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _CHILD_FACTORIES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if kind == "histogram" else ()
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        self._default = None if self.labelnames else self._make_child()
        if self._default is not None:
            self._children[()] = self._default

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _CHILD_FACTORIES[self.kind]()

    def labels(self, *values: object, **by_name: object):
        """The child for one label combination (created on first use)."""
        if by_name:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(by_name[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name}") from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {len(values)} values"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    # Label-less families proxy the child API so call sites read naturally.
    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set_total(self, total: float) -> None:
        self._require_default().set_total(total)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    def rates(self) -> Dict[str, float]:
        return self._require_default().rates()

    def window_stats(self, window: str = "5m") -> Dict[str, float]:
        return self._require_default().window_stats(window)

    @property
    def value(self) -> float:
        return self._require_default().value

    def _require_default(self):
        if self._default is None:
            raise ValueError(f"{self.name} is labelled; call .labels(...) first")
        return self._default

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def _reset(self) -> None:
        self._lock = threading.Lock()
        with self._lock:
            for child in self._children.values():
                child._reset()

    def snapshot(self) -> Dict[str, object]:
        out = {
            "name": self.name,
            "help": self.help,
            "kind": self.kind,
            "labelnames": list(self.labelnames),
            "samples": [],
        }
        for key, child in self.samples():
            sample = child._snapshot()
            sample["labels"] = dict(zip(self.labelnames, key))
            out["samples"].append(sample)
        return out


class MetricRegistry:
    """Process-wide family registry plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: Dict[str, Callable[[], None]] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                        f"{existing.labelnames}, cannot re-register as {kind}"
                        f"{tuple(labelnames)}"
                    )
                return existing
            family = MetricFamily(name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._register(name, help_text, "histogram", labelnames, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def register_collector(self, key: str, fn: Callable[[], None]) -> None:
        """Install (or replace) a scrape-time refresh callback.

        Collectors run at the top of :meth:`collect` to pull values the
        hot path does not push — store bytes, worker utilization, cache
        totals.  Keyed so a re-built component replaces, not stacks.
        """
        with self._lock:
            self._collectors[key] = fn

    def unregister_collector(self, key: str) -> None:
        with self._lock:
            self._collectors.pop(key, None)

    def get_collector(self, key: str) -> Optional[Callable[[], None]]:
        with self._lock:
            return self._collectors.get(key)

    def run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors.values())
        for fn in collectors:
            try:
                fn()
            except Exception:  # noqa: BLE001 - scrape must survive a bad collector
                pass

    def collect(self) -> List[Dict[str, object]]:
        """Run collectors, then snapshot every family (JSON-safe)."""
        self.run_collectors()
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        return [family.snapshot() for family in families]

    def reset_values(self) -> None:
        """Zero every child (fork hygiene, tests); families survive."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family._reset()

    def _reset_after_fork(self) -> None:
        # Fresh locks (a lock held across fork would deadlock the child)
        # and zeroed values (the child must not re-report parent counts).
        self._lock = threading.Lock()
        for family in self._families.values():
            family._reset()
        self._collectors = dict(self._collectors)


#: The process-wide registry every repro surface feeds.
REGISTRY = MetricRegistry()

os.register_at_fork(after_in_child=REGISTRY._reset_after_fork)
