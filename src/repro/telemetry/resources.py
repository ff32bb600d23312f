"""Process resource telemetry: sampler thread and per-compile probes.

Stdlib only — ``resource`` for CPU seconds and peak RSS, ``gc`` for
collection counts, ``/proc/self`` (when present) for current RSS and
open file descriptors.  The sampler is a daemon thread the gateway
starts once per process; each tick refreshes the ``repro_process_*``
gauges/counters in the registry.

:func:`resource_usage` is the cheap probe the pipeline wraps around a
compile (from :func:`attribution_start`, while telemetry is enabled) to
attribute CPU seconds and peak RSS to its ``CompilationReport``.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from typing import Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.telemetry.instruments import (
    PROCESS_CPU,
    PROCESS_FDS,
    PROCESS_GC,
    PROCESS_RSS,
)
from repro.telemetry.registry import telemetry_enabled

__all__ = [
    "ResourceSampler",
    "attribution_start",
    "resource_usage",
    "sample_resources",
    "start_resource_sampler",
    "stop_resource_sampler",
]

# ru_maxrss is kilobytes on Linux, bytes on macOS.
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def resource_usage() -> Tuple[float, int]:
    """``(cpu_seconds, peak_rss_bytes)`` for this process so far."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0.0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = usage.ru_utime + usage.ru_stime
    return cpu, int(usage.ru_maxrss) * _MAXRSS_SCALE


def attribution_start() -> Optional[Tuple[float, int]]:
    """:func:`resource_usage` to attribute a compile from, or ``None``
    while telemetry is off (nothing is attributed then)."""
    return resource_usage() if telemetry_enabled() else None


def _current_rss_bytes() -> int:
    """Current resident set (``/proc`` where available, else peak)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        return resource_usage()[1]


def _open_fds() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def sample_resources() -> None:
    """Refresh the ``repro_process_*`` families once."""
    if not telemetry_enabled():
        return
    cpu, _peak = resource_usage()
    PROCESS_CPU.set_total(cpu)
    PROCESS_RSS.set(_current_rss_bytes())
    for generation, stats in enumerate(gc.get_stats()):
        PROCESS_GC.labels(str(generation)).set_total(stats.get("collections", 0))
    fds = _open_fds()
    if fds is not None:
        PROCESS_FDS.set(fds)


class ResourceSampler:
    """Daemon thread refreshing process gauges every ``interval`` seconds."""

    def __init__(self, interval: float = 5.0) -> None:
        self.interval = max(0.1, float(interval))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        sample_resources()  # gauges are live from the first scrape
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-resources", daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                sample_resources()
            except Exception:  # noqa: BLE001 - sampling must never kill the thread
                pass

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._thread = None


_SAMPLER: Optional[ResourceSampler] = None
_SAMPLER_LOCK = threading.Lock()


def start_resource_sampler(interval: float = 5.0) -> ResourceSampler:
    """Start (or return) the process-wide sampler singleton."""
    global _SAMPLER
    with _SAMPLER_LOCK:
        if _SAMPLER is None:
            _SAMPLER = ResourceSampler(interval)
        _SAMPLER.start()
        return _SAMPLER


def stop_resource_sampler() -> None:
    """Stop the singleton (tests, clean shutdown)."""
    global _SAMPLER
    with _SAMPLER_LOCK:
        if _SAMPLER is not None:
            _SAMPLER.stop()
            _SAMPLER = None


# Fresh resource numbers on every scrape, even between sampler ticks.
from repro.telemetry.registry import REGISTRY  # noqa: E402

REGISTRY.register_collector("process_resources", sample_resources)


def _after_fork() -> None:
    # The sampler thread does not survive fork; forget it so a child
    # that becomes a server can start its own.
    global _SAMPLER
    _SAMPLER = None


os.register_at_fork(after_in_child=_after_fork)
