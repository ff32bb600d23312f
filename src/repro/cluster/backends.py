"""Pluggable persistent-store backends for multi-node serving.

The L2 result tier behind :func:`repro.compile` is duck-typed (see
:func:`repro.api.cache.install_persistent_store`); this module names the
contract explicitly and adds the first distributed implementation:

* :class:`StoreBackend` — the abstract surface every backend speaks:
  keyed ``get``/``put`` (deserialized :class:`AdaptationResult`), raw
  entry transport ``read_raw``/``write_raw`` (the exact on-disk JSON
  document, which is what travels between nodes), ``info``/
  ``statistics`` and a ``backend`` label for telemetry.
* :class:`repro.service.PersistentResultStore` — the **local-dir**
  backend (registered as a virtual subclass; it predates this module and
  stays where the service layer can import it without a cycle).
* :class:`ReplicatedStoreBackend` — the **peer-fetch** backend: each
  node owns a private local-dir tier and, on a local miss, asks its
  peers' ``GET /internal/store/{digest}`` endpoints for the entry.  A
  peer hit is adopted into the local tier (so the next lookup is local)
  and counted as a ``peer_hit`` — the "warm cross-shard L2 hit" the
  scaling benchmarks measure.

Peers are either a static URL list or a *peers file* (JSON written by
:class:`repro.server.ShardRouter` after every shard has booted, since
shard ports are assigned dynamically).  The file is re-read lazily when
its mtime changes, so respawned shards show up without restarts.

:func:`resolve_store_backend` turns the CLI/config spec strings into
backends::

    dir:/path/to/store              local-dir (a bare path means the same)
    replicated:/path?peers=URL,URL  peer-fetch with static peers
    replicated:/path                peer-fetch; peers from peers.json
"""

from __future__ import annotations

import abc
import json
import os
import threading
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.api.cache import CacheKey
from repro.core.adapter import AdaptationResult
from repro.service.store import (
    DEFAULT_MAX_BYTES,
    PersistentResultStore,
    StoreInfo,
    _entry_digest,
)
from repro.trace.tracer import event

#: Name of the dynamic peer-discovery file a router writes at the store
#: root once every shard's port is known.
PEERS_FILE = "peers.json"

#: Environment variable naming this process's node in the peers file
#: (set by the shard router for its worker processes).
NODE_ENV = "REPRO_CLUSTER_NODE"

#: Per-peer HTTP timeout: a slow peer must never stall a compile longer
#: than recomputing a small circuit would take.
DEFAULT_PEER_TIMEOUT = 2.0


class StoreBackend(abc.ABC):
    """The surface every persistent-store backend implements.

    ``get``/``put`` speak deserialized results (the cache protocol
    :func:`repro.compile` consults); ``read_raw``/``write_raw`` speak the
    verbatim entry document (the replication wire format).  Backends are
    duck-typed at every call site — this ABC exists so new backends have
    a checklist and ``isinstance`` checks keep working via virtual
    registration.
    """

    #: Telemetry label distinguishing backends in statistics and metrics.
    backend = "abstract"

    @abc.abstractmethod
    def get(self, key: Optional[CacheKey]) -> Optional[AdaptationResult]:
        """Deserialized entry for ``key``, or ``None`` on a miss."""

    @abc.abstractmethod
    def put(self, key: Optional[CacheKey], result: AdaptationResult) -> None:
        """Persist ``result`` under ``key``."""

    @abc.abstractmethod
    def read_raw(self, digest: str) -> Optional[str]:
        """Verbatim entry document for a sha256 digest, or ``None``."""

    @abc.abstractmethod
    def write_raw(self, digest: str, document: str) -> bool:
        """Adopt a verbatim entry document; ``True`` when stored."""

    @abc.abstractmethod
    def info(self) -> StoreInfo:
        """Counters and footprint of the backend's local tier."""

    @abc.abstractmethod
    def statistics(self) -> Dict[str, object]:
        """JSON-ready statistics including the ``backend`` label."""


# The local-dir store predates this interface and lives below the
# service layer; it conforms structurally and registers virtually.
StoreBackend.register(PersistentResultStore)


class ReplicatedStoreBackend:
    """A local-dir tier with HTTP peer fetch on miss.

    Parameters
    ----------
    root:
        The *cluster* store root.  With a ``node`` name the local tier
        lives in ``root/node`` (each node private); without one it lives
        in ``root`` directly.
    node:
        This node's name in the peers file (e.g. ``"s0"``); defaults to
        the ``REPRO_CLUSTER_NODE`` environment variable.  Fetches skip
        the entry naming this node.
    peers:
        Static peer base URLs.  When ``None``, peers come from
        ``root/peers.json`` (re-read when its mtime changes).
    peer_timeout:
        Per-peer HTTP timeout in seconds.
    max_bytes:
        Size budget of the local tier.
    """

    backend = "replicated"

    def __init__(
        self,
        root: str,
        node: Optional[str] = None,
        peers: Optional[List[str]] = None,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.root = os.path.abspath(root)
        self.node = node if node is not None else os.environ.get(NODE_ENV)
        local_root = (os.path.join(self.root, self.node)
                      if self.node else self.root)
        self.local = PersistentResultStore(local_root, max_bytes=max_bytes)
        self.peer_timeout = peer_timeout
        self._static_peers = ([url.rstrip("/") for url in peers]
                              if peers is not None else None)
        self._peers_path = os.path.join(self.root, PEERS_FILE)
        self._peers_mtime: Optional[float] = None
        self._peers_cache: List[str] = []
        self._lock = threading.Lock()
        self._peer_counts = {"hit": 0, "miss": 0, "error": 0}

    # -- peer discovery --------------------------------------------------
    def peers(self) -> List[str]:
        """Current peer base URLs (own node excluded)."""
        if self._static_peers is not None:
            return list(self._static_peers)
        try:
            mtime = os.stat(self._peers_path).st_mtime
        except OSError:
            return []
        with self._lock:
            if mtime != self._peers_mtime:
                self._peers_cache = self._load_peers_file()
                self._peers_mtime = mtime
            return list(self._peers_cache)

    def _load_peers_file(self) -> List[str]:
        try:
            with open(self._peers_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return []
        entries = payload.get("peers") if isinstance(payload, dict) else None
        if not isinstance(entries, dict):
            return []
        return [str(url).rstrip("/") for name, url in sorted(entries.items())
                if name != self.node]

    # -- the cache protocol ----------------------------------------------
    def get(self, key: Optional[CacheKey]) -> Optional[AdaptationResult]:
        """Local tier first; on a miss, ask every peer for the entry."""
        if key is None:
            return None
        result = self.local.get(key)
        if result is not None:
            return result
        digest = _entry_digest(key)
        document = self._fetch_from_peers(digest)
        if document is None:
            return None
        try:
            result = AdaptationResult.from_dict(json.loads(document)["result"])
        except (ValueError, KeyError, TypeError):
            # A peer served garbage; treat as a miss and do not adopt it.
            self._fetched("error")
            return None
        # Adopt the entry so the next lookup is local (and so this node
        # can in turn serve it to other peers).
        self.local.write_raw(digest, document)
        self._fetched("hit", digest=digest, bytes=len(document))
        return result

    def put(self, key: Optional[CacheKey], result: AdaptationResult) -> None:
        self.local.put(key, result)

    # -- raw entry transport ---------------------------------------------
    def read_raw(self, digest: str) -> Optional[str]:
        """Serve *local* entries only: peers never fetch transitively."""
        return self.local.read_raw(digest)

    def write_raw(self, digest: str, document: str) -> bool:
        return self.local.write_raw(digest, document)

    def _fetch_from_peers(self, digest: str) -> Optional[str]:
        peers = self.peers()
        if not peers:
            self._count("miss")  # nobody to ask: no fetch to report
            return None
        for peer in peers:
            url = f"{peer}/internal/store/{digest}"
            try:
                request = urllib.request.Request(
                    url, headers={"Accept": "application/json"})
                with urllib.request.urlopen(
                        request, timeout=self.peer_timeout) as response:
                    return response.read().decode("utf-8")
            except urllib.error.HTTPError as error:
                error.close()
                if error.code != 404:
                    self._fetched("error")
            except (urllib.error.URLError, OSError, ValueError):
                self._fetched("error")
        self._fetched("miss")
        return None

    # -- statistics ------------------------------------------------------
    def _count(self, outcome: str) -> None:
        with self._lock:
            self._peer_counts[outcome] += 1

    def _fetched(self, outcome: str, **fields: object) -> None:
        """Book one peer fetch attempt: ``hit``, ``miss`` or ``error``."""
        self._count(outcome)
        event("store.peer_fetch", "service", backend=self.backend,
              outcome=outcome, **fields)

    def info(self) -> StoreInfo:
        """The local tier's counters/footprint (peer counters are extra)."""
        return self.local.info()

    def statistics(self) -> Dict[str, object]:
        stats: Dict[str, object] = dict(self.local.info().as_dict())
        peer_count = len(self.peers())  # Takes the lock; stay outside it.
        with self._lock:
            stats.update(
                backend=self.backend,
                node=self.node,
                peers=peer_count,
                peer_hits=self._peer_counts["hit"],
                peer_misses=self._peer_counts["miss"],
                peer_errors=self._peer_counts["error"],
            )
        return stats

    def clear(self) -> int:
        return self.local.clear()

    def __repr__(self) -> str:
        return (f"ReplicatedStoreBackend(root={self.root!r}, "
                f"node={self.node!r}, peers={len(self.peers())})")


StoreBackend.register(ReplicatedStoreBackend)


def write_peers_file(root: str, peers: Dict[str, str]) -> str:
    """Atomically publish the node-name -> base-URL map at ``root``.

    The shard router calls this once every shard announced its port (and
    again after a respawn).  Returns the file path.
    """
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, PEERS_FILE)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({"peers": dict(peers)}, handle, sort_keys=True)
    os.replace(tmp_path, path)
    return path


def _parse_spec(spec: str) -> Tuple[str, str, Dict[str, List[str]]]:
    """Split ``scheme:path?query`` → (scheme, path, query dict)."""
    scheme, separator, rest = spec.partition(":")
    if scheme in ("dir", "replicated") and separator:
        path, _, query = rest.partition("?")
        return scheme, path, parse_qs(query)
    return "dir", spec, {}


def resolve_store_backend(spec, node: Optional[str] = None):
    """Turn a store spec into a backend instance.

    ``None`` stays ``None``; an object with ``get``/``put`` passes
    through; a string is parsed: ``dir:PATH`` (or a bare path) builds the
    local-dir backend, ``replicated:PATH[?peers=URL,URL][&timeout=S]``
    the peer-fetch backend.  ``node`` names this process in the peers
    file (defaults to ``$REPRO_CLUSTER_NODE``).
    """
    if spec is None:
        return None
    if hasattr(spec, "get") and hasattr(spec, "put") and not isinstance(spec, str):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve a store backend from {type(spec).__name__}")
    scheme, path, query = _parse_spec(spec)
    if not path:
        raise ValueError(f"store spec {spec!r} names no directory")
    if scheme == "dir":
        return PersistentResultStore(path)
    peers: Optional[List[str]] = None
    if "peers" in query:
        peers = [url for raw in query["peers"]
                 for url in raw.split(",") if url]
    timeout = DEFAULT_PEER_TIMEOUT
    if "timeout" in query:
        try:
            timeout = float(query["timeout"][0])
        except (ValueError, IndexError):
            raise ValueError(
                f"invalid peer timeout in store spec {spec!r}") from None
    return ReplicatedStoreBackend(path, node=node, peers=peers,
                                  peer_timeout=timeout)
