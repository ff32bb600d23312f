"""Deterministic in-process cache of compilation results (the L1 tier).

Results are keyed by ``(circuit hash, target fingerprint, technique,
options fingerprint)`` — see :mod:`repro.api.fingerprints`.  A cache hit
returns a deep copy of the stored :class:`repro.core.AdaptationResult`
with the report flagged ``cache_hit=True``, so callers can freely mutate
what they get back without corrupting the cache.  Gates and instructions
are frozen, so the copy shares them and duplicates only the containers.

The cache is a true LRU: every hit refreshes the entry's recency and the
least recently *used* entry is evicted when the cache is full.

A persistent second tier (the disk-backed
:class:`repro.service.PersistentResultStore`) can be installed behind the
process-wide L1 with :func:`install_persistent_store`;
:func:`repro.compile` then consults L1 → L2 → pipeline and populates both
tiers on a miss.  The hook is duck-typed (``get(key)`` / ``put(key,
result)``), keeping :mod:`repro.api` free of any dependency on the
service layer above it.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

CacheKey = Tuple[str, str, str, str]


@dataclass
class CacheInfo:
    """Hit/miss counters and current size of the compilation cache."""

    hits: int = 0
    misses: int = 0
    size: int = 0


class CompilationCache:
    """A thread-safe LRU result store with hit/miss accounting."""

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Optional[CacheKey]):
        """Return a detached copy of the cached result, or ``None``.

        A hit moves the entry to the most-recently-used position, so the
        eviction policy is true LRU rather than insertion-order FIFO.
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        result = copy.deepcopy(entry)
        if result.report is not None:
            result.report = result.report.as_cache_hit()
        return result

    def put(self, key: Optional[CacheKey], result) -> None:
        """Store a result (detached copy) unless the key is uncacheable."""
        if key is None:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.max_entries:
                # Drop the least recently used entry to bound memory.
                self._entries.popitem(last=False)
            self._entries[key] = copy.deepcopy(result)

    def keys(self):
        """The cached keys from least to most recently used (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Empty the cache and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def invalidate_technique(self, technique: str) -> int:
        """Drop every entry compiled by ``technique``; returns the count.

        Called when a technique key is re-registered or removed, so stale
        results from the replaced pipeline can never be served.
        """
        with self._lock:
            stale = [key for key in self._entries if key[2] == technique]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def info(self) -> CacheInfo:
        """Current hit/miss counters and size."""
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             size=len(self._entries))


#: The process-wide cache used by :func:`repro.compile`.
GLOBAL_CACHE = CompilationCache()


def clear_compilation_cache() -> None:
    """Empty the process-wide compilation cache (L1 only)."""
    GLOBAL_CACHE.clear()


def compilation_cache_info() -> CacheInfo:
    """Hit/miss counters and size of the process-wide compilation cache."""
    return GLOBAL_CACHE.info()


# ---------------------------------------------------------------------------
# L2: the optional persistent store behind the in-process cache
# ---------------------------------------------------------------------------
_L2_LOCK = threading.Lock()
_L2_STORE = None


def install_persistent_store(store):
    """Install ``store`` as the L2 tier behind the process-wide cache.

    ``store`` is duck-typed: it needs ``get(key) -> AdaptationResult |
    None`` and ``put(key, result)``.  :func:`repro.compile` consults it
    after an L1 miss and writes fresh results through to it.  Returns the
    store, replacing any previously installed one.
    """
    global _L2_STORE
    with _L2_LOCK:
        _L2_STORE = store
    return store


def uninstall_persistent_store() -> None:
    """Detach the L2 tier (the store itself is left untouched)."""
    global _L2_STORE
    with _L2_LOCK:
        _L2_STORE = None


def persistent_store():
    """The currently installed L2 store, or ``None``."""
    return _L2_STORE


def store_result(key: Optional[CacheKey], result) -> None:
    """Write one freshly compiled result through both cache tiers.

    The single write path for :func:`repro.compile`, the batch fan-out
    merge and the service's process-mode merge — so write-through
    semantics can only ever change in one place.
    """
    if key is None:
        return
    GLOBAL_CACHE.put(key, result)
    store = _L2_STORE
    if store is not None:
        store.put(key, result)
