"""Disk-backed, content-addressed store of compilation results (the L2 tier).

Every entry is one JSON file holding a serialized
:class:`repro.core.AdaptationResult` (see ``AdaptationResult.to_dict``),
addressed by the same ``(circuit hash, target fingerprint, technique,
options fingerprint)`` key as the in-process cache and sharded over 256
two-hex-digit directories so no single directory grows unboundedly.

Guarantees:

* **Atomic writes** — entries are written to a temporary file in the
  shard directory and ``os.replace``-d into place, so a reader never
  observes a half-written entry (and a crashed writer leaves at most a
  ``*.tmp`` file that is swept on the next eviction pass).
* **Per-shard locking** — writers serialize per shard, not globally, so
  concurrent workers on different shards never contend.
* **LRU / size-budget eviction** — each hit refreshes the entry's mtime;
  when the store exceeds ``max_bytes``, the least recently used entries
  are evicted until it fits again.
* **Corruption quarantine** — an unreadable or truncated entry counts
  as a miss and is moved into a ``.corrupt/`` sidecar directory (never
  poisoning later reads, but preserved for post-mortem inspection); the
  ``corrupted`` counter in :meth:`PersistentResultStore.statistics`
  tracks how many were caught.

Install a store behind :func:`repro.compile` with
:func:`use_persistent_store` (or pass it to a
:class:`repro.service.CompilationService`, which installs it for you).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.cache import (
    CacheKey,
    install_persistent_store,
    uninstall_persistent_store,
)
from repro.core.adapter import AdaptationResult
from repro.resilience.faults import maybe_fault
from repro.trace.tracer import event

#: On-disk payload schema version; bump when the layout changes.
STORE_FORMAT = 1

#: Default size budget: plenty for tens of thousands of small-circuit
#: results while staying laptop- and CI-friendly.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``*.tmp`` file younger than this is assumed to belong to a live
#: writer and is left alone by the stale-file sweep.
_TMP_GRACE_SECONDS = 60.0

#: Sidecar directory (under the store root) corrupt entries are moved to.
QUARANTINE_DIR = ".corrupt"

#: A ``scheme:`` prefix on a store spec (``dir:PATH``).  Any other
#: scheme is refused rather than read as a directory name.
_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]+):")


@dataclass
class StoreInfo:
    """Counters and current footprint of a persistent result store."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupted: int = 0
    entries: int = 0
    total_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON stats dumps."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupted": self.corrupted,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
        }


def _entry_digest(key: CacheKey) -> str:
    """Stable content address of a cache key (sha256 over its parts)."""
    return hashlib.sha256("\x1f".join(key).encode()).hexdigest()


class PersistentResultStore:
    """Sharded on-disk result store keyed by compilation fingerprints.

    Any object with the same ``get``/``put``/``info`` surface can be
    installed behind :func:`repro.compile` or a
    :class:`repro.service.CompilationService` instead (see
    :func:`resolve_store_backend`).  Several processes may open one
    directory at once: writes are atomic and entries content-addressed,
    so sharded servers share it as their common L2 tier.
    """

    #: Backend label carried on statistics and telemetry samples.
    backend = "local_dir"

    def __init__(self, root: str, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)
        self._shard_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._eviction_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._corrupted = 0
        # Running footprint tally so the hot write path never rescans the
        # store; corrected against a real scan whenever eviction runs.
        self._total_bytes = sum(size for _, size, _ in self._scan())

    # -- paths and locks -------------------------------------------------
    def _shard_of(self, digest: str) -> str:
        return digest[:2]

    def _path_of(self, digest: str) -> str:
        return os.path.join(self.root, self._shard_of(digest), digest + ".json")

    def _shard_lock(self, shard: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._shard_locks.get(shard)
            if lock is None:
                lock = self._shard_locks[shard] = threading.Lock()
            return lock

    # -- the cache protocol (duck-typed L2 behind repro.compile) ---------
    def get(self, key: Optional[CacheKey]) -> Optional[AdaptationResult]:
        """Load and deserialize the entry for ``key``, or ``None``.

        A hit refreshes the file mtime (the LRU clock).  A corrupt entry
        is quarantined to ``.corrupt/`` and reported as a miss.
        """
        if key is None:
            return None
        digest = _entry_digest(key)
        path = self._path_of(digest)
        for spec in maybe_fault("store.read"):
            if spec.action == "corrupt":
                # Fault injection: garble the entry before reading it, so
                # the quarantine path below runs against a real bad file.
                try:
                    with open(path, "r+", encoding="utf-8") as handle:
                        handle.seek(0)
                        handle.write("{corrupt")
                        handle.truncate()
                except OSError:
                    pass
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = AdaptationResult.from_dict(payload["result"])
        except FileNotFoundError:
            self._count(misses=1)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated/corrupt entry: quarantine it so it cannot poison
            # reads while staying available for post-mortem inspection.
            size = self._quarantine(digest, path)
            with self._counters_lock:
                self._misses += 1
                self._corrupted += 1
                self._total_bytes -= size
            event("store.corrupt", "service", digest=digest, bytes=size)
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # Entry may have been evicted concurrently; the result stands.
        self._count(hits=1)
        return result

    def put(self, key: Optional[CacheKey], result: AdaptationResult) -> None:
        """Serialize and atomically persist ``result`` under ``key``."""
        if key is None:
            return
        digest = _entry_digest(key)
        shard = self._shard_of(digest)
        shard_dir = os.path.join(self.root, shard)
        payload = {
            "format": STORE_FORMAT,
            "key": list(key),
            "result": result.to_dict(),
        }
        encoded = json.dumps(payload, sort_keys=True)
        path = self._path_of(digest)
        with self._shard_lock(shard):
            os.makedirs(shard_dir, exist_ok=True)
            try:
                replaced = os.stat(path).st_size
            except OSError:
                replaced = 0
            descriptor, tmp_path = tempfile.mkstemp(
                prefix=digest + ".", suffix=".tmp", dir=shard_dir
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    handle.write(encoded)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        with self._counters_lock:
            self._puts += 1
            # JSON with ensure_ascii (the default) is pure ASCII: one
            # byte per character.
            self._total_bytes += len(encoded) - replaced
            over_budget = (
                self.max_bytes is not None
                and 0 <= self.max_bytes < self._total_bytes
            )
        if over_budget:
            self._evict_to_budget()

    # -- maintenance -----------------------------------------------------
    def _quarantine(self, digest: str, path: str) -> int:
        """Move a corrupt entry into ``.corrupt/``; returns its byte size."""
        sidecar = os.path.join(self.root, QUARANTINE_DIR)
        with self._shard_lock(self._shard_of(digest)):
            try:
                size = os.stat(path).st_size
            except OSError:
                return 0
            try:
                os.makedirs(sidecar, exist_ok=True)
                os.replace(path, os.path.join(sidecar, digest + ".json"))
            except OSError:
                # Fall back to deletion: never leave a poisoned entry live.
                try:
                    os.unlink(path)
                except OSError:
                    return 0
        return size

    def _scan(self) -> List[Tuple[float, int, str]]:
        """All entries as ``(mtime, size, path)``; sweeps stale tmp files.

        Dot-directories (the ``.corrupt/`` quarantine) are not entries:
        they are neither counted nor evicted.
        """
        entries: List[Tuple[float, int, str]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return entries
        for shard in shards:
            if shard.startswith("."):
                continue
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard_dir, name)
                if name.endswith(".tmp"):
                    # Leftover from a crashed writer — but only when old
                    # enough that no live writer can still be about to
                    # ``os.replace`` it into place.
                    try:
                        if time.time() - os.stat(path).st_mtime > _TMP_GRACE_SECONDS:
                            os.unlink(path)
                    except OSError:
                        pass
                    continue
                if not name.endswith(".json"):
                    continue
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used entries until the store fits the budget."""
        if not self._eviction_lock.acquire(blocking=False):
            return  # Another thread is already evicting.
        try:
            entries = self._scan()
            total = sum(size for _, size, _ in entries)
            if total > self.max_bytes:
                entries.sort()  # Oldest mtime first.
                for _, size, path in entries:
                    if total <= self.max_bytes:
                        break
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    total -= size
                    self._count(evictions=1)
            with self._counters_lock:
                self._total_bytes = total  # Re-anchor the running tally.
        finally:
            self._eviction_lock.release()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        remaining = 0
        for _, size, path in self._scan():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                remaining += size
        with self._counters_lock:
            self._total_bytes = remaining
        return removed

    def info(self) -> StoreInfo:
        """Counters plus the current on-disk entry count and byte size."""
        entries = self._scan()
        with self._counters_lock:
            return StoreInfo(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                corrupted=self._corrupted,
                entries=len(entries),
                total_bytes=sum(size for _, size, _ in entries),
            )

    def statistics(self) -> Dict[str, object]:
        """The :meth:`info` counters as a plain dict (for stats dumps)."""
        stats: Dict[str, object] = dict(self.info().as_dict())
        stats["backend"] = self.backend
        return stats

    def _count(self, hits: int = 0, misses: int = 0, puts: int = 0,
               evictions: int = 0) -> None:
        with self._counters_lock:
            self._hits += hits
            self._misses += misses
            self._puts += puts
            self._evictions += evictions

    def __repr__(self) -> str:
        return f"PersistentResultStore(root={self.root!r}, max_bytes={self.max_bytes})"


def resolve_store_backend(spec):
    """Turn a ``store`` argument into a store instance.

    ``None`` stays ``None``; an object with ``get``/``put`` passes
    through; a string is ``dir:PATH`` or a bare directory path.  A
    string with any other ``scheme:`` prefix raises ``ValueError`` (a
    path that really contains a colon can be given as ``dir:PATH``).
    """
    if spec is None:
        return None
    if hasattr(spec, "get") and hasattr(spec, "put"):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve a store backend from {type(spec).__name__}")
    path = spec
    scheme = _SCHEME_RE.match(spec)
    if scheme is not None:
        if scheme.group(1) != "dir":
            raise ValueError(
                f"unknown store scheme {scheme.group(1)!r} in {spec!r}; "
                "expected 'dir:PATH' or a directory path")
        path = spec[len("dir:"):]
    if not path:
        raise ValueError(f"store spec {spec!r} names no directory")
    return PersistentResultStore(path)


def use_persistent_store(
    root: str, max_bytes: int = DEFAULT_MAX_BYTES
) -> PersistentResultStore:
    """Create a store at ``root`` and install it behind :func:`repro.compile`."""
    return install_persistent_store(PersistentResultStore(root, max_bytes=max_bytes))


def disable_persistent_store() -> None:
    """Detach whatever store is installed behind :func:`repro.compile`."""
    uninstall_persistent_store()
