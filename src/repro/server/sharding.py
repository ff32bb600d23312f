"""Multi-process sharding: N gateway workers behind a hash router.

:class:`ShardRouter` spawns ``shards`` worker *processes*, each running a
full :class:`repro.server.ReproServer` (its own ``CompilationService``,
worker threads and in-process L1 cache) on a loopback port, and fronts
them with one routing HTTP server:

* **Submissions** (``POST /v1/jobs``, ``/v1/batch``, suite compiles,
  validation) are routed by the :func:`repro.api.payload_fingerprint`
  of the request body — byte-identical submissions always land on the
  same worker, so repeats hit that worker's L1 cache and concurrent
  duplicates coalesce onto one in-flight compilation.
* **Job lookups** route by the job id itself: every shard mints ids
  under its own prefix (``s0-j1``, ``s1-j1``, ...), so ``GET
  /v1/jobs/s1-j7`` needs no routing table.
* **``/healthz`` and ``/metrics``** fan out to every shard and come back
  aggregated (per-shard documents plus summed counters).

All shards share one :class:`repro.service.PersistentResultStore`
directory as their L2 tier, so a result any shard computed is an L2 hit
on every other shard.  The store's writes are atomic (``os.replace``)
and its entries content-addressed, so cross-process sharing needs no
extra coordination: the per-shard locks serialize writers within a
process and concurrent processes at worst redundantly write the same
bytes.

The router also **supervises** its shards: a health-monitor thread
detects a dead worker process, respawns it under a fresh job-id
generation (``s1g1-``, ``s1g2-``, ...), and in the meantime fails
submissions over to the surviving shards.  Lookups of a dead shard's
jobs answer 503 with a ``Retry-After`` hint while the replacement boots
(the jobs themselves died with the process; after the respawn the shard
answers 404 for them, which is the honest terminal state).

Shutdown is **draining**: the router stops accepting, each shard is
asked to quiesce over ``POST /internal/drain`` (queued and running jobs
finish), and only then are the worker processes stopped.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.api.fingerprints import payload_fingerprint
from repro.cluster.auth import AuthError, Authenticator, credential_from_headers
from repro.service.store import resolve_store_backend
from repro.telemetry.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    merge_prometheus,
)
from repro.trace.tracer import TRACE_HEADER

#: How long the router waits for one forwarded request; must exceed the
#: gateway's 60 s result long-poll cap.
_FORWARD_TIMEOUT_SECONDS = 120.0

#: End-to-end headers relayed to the shard: trace propagation, the
#: compile-deadline hint and the API credential (shards re-check key
#: *validity*; the router already charged the rate limits).  Everything
#: else stops at the router.
_FORWARDED_HEADERS = (TRACE_HEADER, "X-Repro-Deadline", "Authorization",
                      "X-API-Key")

#: Per-backend store counters summed across shards in /metrics: each
#: shard process counts its own operations.
_STORE_SUMMED = ("hits", "misses", "puts", "evictions", "corrupted")

#: Per-backend store footprint taken once in /metrics: the shards share
#: one store directory and each reports all of it.
_STORE_SHARED = ("total_bytes", "entries")

#: Submission resources routed by body fingerprint (prefix match for the
#: suite-compile resource).
_BODY_ROUTED = ("/v1/jobs", "/v1/batch", "/v1/circuits/validate", "/v1/suite/")

#: Service counters summed across shards in the aggregated /metrics.
_SUMMED_COUNTERS = ("submitted", "deduplicated", "completed", "failed",
                    "cancelled", "queue_depth", "busy_workers", "workers",
                    "worker_crashes", "degraded")

#: Job ids are ``s<shard>[g<generation>]-...``; generation 0 keeps the
#: plain ``s<shard>-`` form so pre-respawn ids stay valid.
_JOB_ID_SHARD = re.compile(r"^s(\d+)(?:g\d+)?-.")

#: How often the health monitor polls shard process liveness.
_HEALTH_INTERVAL_SECONDS = 0.5

#: ``Retry-After`` hint while a dead shard's replacement boots.
_SHARD_RETRY_AFTER_SECONDS = 2.0


def _shard_main(index: int, host: str, ready, config: Dict,
                job_prefix: str) -> None:
    """Worker-process entry point: serve one gateway on a free port."""
    from repro.server.app import build_server

    server = build_server(
        host=host,
        port=0,
        workers=config["workers"],
        store=config["store"],
        durations=config["durations"],
        max_pending=config["max_pending"],
        job_prefix=job_prefix,
        # The router is the charging edge; shards only re-check key
        # validity so one request never pays its rate limit twice.
        auth=config.get("auth"),
        enforce_limits=False,
    )
    ready.put((index, server.port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


class ShardRouter:
    """A fingerprint-hash HTTP router over N worker server processes."""

    def __init__(
        self,
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: Optional[str] = None,
        durations: str = "D0",
        max_pending: int = 256,
        auth=None,
    ) -> None:
        if shards < 1:
            raise ValueError("the router needs at least one shard")
        if store is not None and not isinstance(store, str):
            raise TypeError(
                "the sharded store must be a directory path or a 'dir:' "
                "spec string (each worker process opens it itself)"
            )
        # Refuse a bad spec here, before any shard process fails on it.
        resolve_store_backend(store)
        self.shards = shards
        self.host = host
        self.store = store
        # The router is the charging edge of the key set; the shards it
        # spawns get the same keys in validity-only mode.
        self._auth = Authenticator.from_spec(auth, enforce_limits=True)
        self._config = {
            "workers": workers,
            "store": store,
            "durations": durations,
            "max_pending": max_pending,
            "auth": self._auth.key_config() if self._auth.enabled else None,
        }
        self._requested_port = port
        self._processes: Dict[int, multiprocessing.Process] = {}
        self._shard_ports: Dict[int, int] = {}
        self._generations: Dict[int, int] = {}
        self._respawns: Dict[int, int] = {}
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._context = multiprocessing.get_context()
        self._ready = None  # The shard-port announcement queue.
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._respawn_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def _spawn_shard(self, index: int) -> multiprocessing.Process:
        """Start the worker process for one shard (current generation)."""
        generation = self._generations.get(index, 0)
        prefix = f"s{index}-" if generation == 0 else f"s{index}g{generation}-"
        process = self._context.Process(
            target=_shard_main,
            args=(index, self.host, self._ready, self._config, prefix),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        self._processes[index] = process
        return process

    def start(self, boot_timeout: float = 60.0) -> "ShardRouter":
        """Spawn the shard processes and start routing."""
        if self._started:
            raise RuntimeError("ShardRouter is already started")
        self._ready = self._context.Queue()
        for index in range(self.shards):
            self._spawn_shard(index)
        deadline = time.monotonic() + boot_timeout
        while len(self._shard_ports) < self.shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.shutdown(drain=False)
                raise TimeoutError(
                    f"only {len(self._shard_ports)} of {self.shards} shards "
                    f"came up within {boot_timeout}s"
                )
            try:
                index, port = self._ready.get(timeout=min(remaining, 1.0))
            except Exception:  # queue.Empty (multiprocessing re-exports it)
                continue
            self._shard_ports[index] = port

        router = self
        handler = type("_BoundRouterHandler", (_RouterHandler,),
                       {"router": router})
        self._server = ThreadingHTTPServer((self.host, self._requested_port),
                                           handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-shard-router", daemon=True)
        self._thread.start()
        self._started = True
        self._monitor_stop.clear()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True)
        self._monitor_thread.start()
        return self

    # -- supervision -----------------------------------------------------
    def _monitor_loop(self) -> None:
        """Watch shard liveness; respawn whatever died."""
        while not self._monitor_stop.wait(_HEALTH_INTERVAL_SECONDS):
            for index, process in list(self._processes.items()):
                if not process.is_alive():
                    self._respawn_shard(index)

    def _respawn_shard(self, index: int, boot_timeout: float = 60.0) -> bool:
        """Replace a dead shard process; ``True`` once the new one serves.

        The replacement mints job ids under a bumped generation prefix
        (``s<index>g<n>-``), so ids of the dead generation can never
        collide with new ones.
        """
        with self._respawn_lock:
            process = self._processes.get(index)
            if (not self._started or process is None or process.is_alive()):
                return False
            process.join(timeout=1.0)
            self._shard_ports.pop(index, None)
            self._generations[index] = self._generations.get(index, 0) + 1
            self._respawns[index] = self._respawns.get(index, 0) + 1
            self._spawn_shard(index)
            deadline = time.monotonic() + boot_timeout
            while index not in self._shard_ports:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                try:
                    announced, port = self._ready.get(
                        timeout=min(remaining, 1.0))
                except Exception:  # queue.Empty
                    continue
                self._shard_ports[announced] = port
            return True

    def respawns(self) -> Dict[int, int]:
        """Per-shard respawn counts so far (a snapshot)."""
        return dict(self._respawns)

    def live_shards(self) -> List[int]:
        """Indices of shards whose process is alive and port known."""
        return [index for index in sorted(self._shard_ports)
                if (process := self._processes.get(index)) is not None
                and process.is_alive()]

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("ShardRouter is not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shard_url(self, index: int) -> str:
        return f"http://{self.host}:{self._shard_ports[index]}"

    def shutdown(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop routing, drain every shard, then stop the processes."""
        # The monitor must stop first, or it would dutifully respawn the
        # very shards this is terminating.
        self._started = False
        self._monitor_stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10)
            self._monitor_thread = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if drain:
            for index in list(self._shard_ports):
                try:
                    self._forward_to_shard(
                        index, "POST", "/internal/drain",
                        json.dumps({"timeout": timeout}).encode(),
                        timeout=timeout + 10,
                    )
                except OSError:
                    pass  # Shard already gone; terminate below.
        for process in self._processes.values():
            process.terminate()
        for process in self._processes.values():
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5)
        self._processes = {}
        self._shard_ports = {}

    def __enter__(self) -> "ShardRouter":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=True)

    # -- routing ---------------------------------------------------------
    def shard_for_body(self, body: bytes, path: str = "") -> int:
        """Stable shard index for a submission (body fingerprint hash).

        The resource path salts the digest so e.g. two suite-compile
        requests with empty bodies but different benchmark names spread
        over different shards.
        """
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = body.hex()
        digest = payload_fingerprint([path, payload])
        return int(digest[:16], 16) % self.shards

    def shard_for_job(self, job_id: str) -> Optional[int]:
        """Shard index encoded in a job id (``s<k>[g<gen>]-...``), or ``None``."""
        match = _JOB_ID_SHARD.match(job_id)
        if match is None:
            return None
        index = int(match.group(1))
        # A valid-but-currently-dead shard still resolves: the routing
        # layer answers 503 + Retry-After for it while the replacement
        # process boots, not 404.
        return index if index < self.shards else None

    def _forward_to_shard(self, index: int, method: str, path: str,
                          body: Optional[bytes] = None,
                          timeout: float = _FORWARD_TIMEOUT_SECONDS,
                          headers: Optional[Dict[str, str]] = None,
                          ) -> Tuple[int, bytes]:
        url = self.shard_url(index) + path
        request_headers = dict(headers or {})
        if body:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=body, method=method, headers=request_headers,
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    @staticmethod
    def _relayed_headers(headers) -> Dict[str, str]:
        """The end-to-end headers a client request carries to its shard."""
        relayed: Dict[str, str] = {}
        if headers is not None:
            for name in _FORWARDED_HEADERS:
                value = headers.get(name)
                if value is not None:
                    relayed[name] = value
        return relayed

    @staticmethod
    def _shard_down_answer(detail: str) -> Tuple[int, bytes]:
        """503 + retry hint while a shard's replacement process boots."""
        return 503, json.dumps({
            "error": detail,
            "retry": True,
            "retry_after": _SHARD_RETRY_AFTER_SECONDS,
        }).encode()

    def authorize(self, headers) -> Optional[Tuple[int, bytes]]:
        """Edge auth decision: ``None`` admits, else the rejection answer.

        The router charges each request's rate limit and quota exactly
        once here; the shard it forwards to re-checks only validity.
        """
        if not self._auth.enabled:
            return None
        credential = (credential_from_headers(headers)
                      if headers is not None else None)
        try:
            self._auth.authenticate(credential)
        except AuthError as error:
            payload: Dict[str, object] = {"error": str(error),
                                          "key": error.key_name}
            if error.retry_after is not None:
                payload["retry_after"] = error.retry_after
            if error.status == 429:
                payload["retry"] = True
            return error.status, json.dumps(payload).encode()
        return None

    def route(self, method: str, path: str, query: str, body: bytes,
              headers=None) -> Tuple[int, bytes, str]:
        """Route one request; returns ``(status, body bytes, content type)``.

        ``headers`` (a mapping, e.g. the handler's message object) feeds
        the end-to-end relay: trace propagation, deadline and credential
        headers travel to the shard, everything else stops here.
        """
        if path.startswith("/v1/"):
            rejected = self.authorize(headers)
            if rejected is not None:
                return rejected[0], rejected[1], "application/json"
        if path == "/metrics" and "format=prometheus" in (query or ""):
            status, answer = self._aggregate_prometheus()
            return status, answer, PROMETHEUS_CONTENT_TYPE
        status, answer = self._route_json(method, path, query, body,
                                          self._relayed_headers(headers))
        return status, answer, "application/json"

    def _route_json(self, method: str, path: str, query: str, body: bytes,
                    relayed: Dict[str, str]) -> Tuple[int, bytes]:
        target = path if not query else f"{path}?{query}"
        if path in ("/healthz", "/metrics"):
            return self._aggregate(path)
        if path.startswith("/internal/"):
            # The quiesce hook is the router's own business, never remote.
            return 404, json.dumps({"error": "no such resource"}).encode()
        if path.startswith("/v1/jobs/"):
            job_id = path.split("/")[3]
            index = self.shard_for_job(job_id)
            if index is None:
                return 404, json.dumps(
                    {"error": f"unknown job {job_id!r}"}).encode()
            # Job ids are shard-affine: a dead shard's jobs cannot fail
            # over, so answer 503 until the replacement is up (which
            # will then report them 404 — they died with the process).
            if index not in self._shard_ports:
                return self._shard_down_answer(
                    f"shard {index} is restarting; job {job_id!r} state "
                    "is unavailable")
            try:
                return self._forward_to_shard(index, method, target,
                                              body or None, headers=relayed)
            except OSError:
                return self._shard_down_answer(
                    f"shard {index} is unreachable")
        if method == "POST" and any(path == p or (p.endswith("/") and
                                                  path.startswith(p))
                                    for p in _BODY_ROUTED):
            preferred = self.shard_for_body(body, path)
            return self._forward_failover(preferred, method, target, body,
                                          relayed)
        # Shard-agnostic reads (e.g. GET /v1/suite): any shard can answer.
        return self._forward_failover(0, method, target, body, relayed)

    def _forward_failover(self, preferred: int, method: str, target: str,
                          body: bytes,
                          headers: Optional[Dict[str, str]] = None,
                          ) -> Tuple[int, bytes]:
        """Forward to ``preferred``, failing over to any live shard.

        Cache affinity is best-effort: a submission whose home shard is
        mid-respawn lands on a survivor rather than bouncing back to the
        client (it only costs a possible duplicate compilation).
        """
        candidates = [preferred] + [index for index in self.live_shards()
                                    if index != preferred]
        for index in candidates:
            if index not in self._shard_ports:
                continue
            try:
                return self._forward_to_shard(index, method, target,
                                              body or None, headers=headers)
            except OSError:
                continue
        return self._shard_down_answer("no shard is currently available")

    def _aggregate_prometheus(self) -> Tuple[int, bytes]:
        """Fan the Prometheus scrape out and concatenate shard documents.

        Every shard self-labels its samples with ``shard="s<k>"``, so the
        merge only needs to deduplicate HELP/TYPE headers per family.
        """
        documents: List[str] = []
        status = 200
        for index in sorted(self._shard_ports):
            try:
                shard_status, raw = self._forward_to_shard(
                    index, "GET", "/metrics?format=prometheus")
            except OSError:
                status = 502
                continue
            if shard_status != 200:
                status = 502
                continue
            documents.append(raw.decode("utf-8", "replace"))
        return status, merge_prometheus(documents).encode("utf-8")

    def _aggregate(self, path: str) -> Tuple[int, bytes]:
        """Fan ``/healthz`` or ``/metrics`` out to every shard and merge."""
        documents: Dict[str, object] = {}
        status = 200
        for index in sorted(self._shard_ports):
            try:
                shard_status, raw = self._forward_to_shard(index, "GET", path)
                document = json.loads(raw.decode("utf-8"))
            except (OSError, ValueError):
                shard_status, document = 502, {"error": "shard unreachable"}
            if shard_status != 200:
                status = 502
            documents[f"s{index}"] = document
        if path == "/healthz":
            live = self.live_shards()
            if len(live) < self.shards:
                status = 502
            merged: Dict[str, object] = {
                "status": "ok" if status == 200 else "degraded",
                "shards": self.shards,
                "live": len(live),
                "respawns": {f"s{k}": n for k, n in sorted(self._respawns.items())},
                "per_shard": documents,
            }
        else:
            totals, stores = merge_shard_metrics(documents)
            merged = {
                "shards": self.shards,
                "aggregate": totals,
                "stores": stores,
                "per_shard": documents,
            }
        return status, json.dumps(merged).encode()


def merge_shard_metrics(
    documents: Dict[str, object],
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Merge per-shard JSON ``/metrics`` documents.

    Returns the summed service counters and, per store backend, the
    shard count, the summed operation counters and the shared footprint.
    """
    totals: Dict[str, float] = {}
    stores: Dict[str, Dict[str, float]] = {}
    for document in documents.values():
        service = document.get("service") if isinstance(document, dict) else None
        if not isinstance(service, dict):
            continue
        for counter in _SUMMED_COUNTERS:
            value = service.get(counter)
            if isinstance(value, (int, float)):
                totals[counter] = totals.get(counter, 0) + value
        l2 = service.get("l2")
        if isinstance(l2, dict):
            backend = str(l2.get("backend", "local_dir"))
            bucket = stores.setdefault(backend, {"shards": 0})
            bucket["shards"] += 1
            for field in _STORE_SUMMED:
                value = l2.get(field)
                if isinstance(value, (int, float)):
                    bucket[field] = bucket.get(field, 0) + value
            for field in _STORE_SHARED:
                value = l2.get(field)
                if isinstance(value, (int, float)):
                    bucket.setdefault(field, value)
    return totals, stores


class _RouterHandler(BaseHTTPRequestHandler):
    """Thin relay: read the request, ask the router, stream the answer."""

    protocol_version = "HTTP/1.1"
    router: ShardRouter

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802
        self._relay("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._relay("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._relay("DELETE")

    def _relay(self, method: str) -> None:
        parsed = urlparse(self.path)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:  # Malformed/negative: never block on read(-1).
            answer = json.dumps({"error": "invalid Content-Length header"}).encode()
            self.close_connection = True
            self.send_response(400)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(answer)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(answer)
            return
        body = self.rfile.read(length) if length else b""
        content_type = "application/json"
        try:
            status, answer, content_type = self.router.route(
                method, parsed.path, parsed.query, body, self.headers)
        except OSError as error:
            status = 502
            answer = json.dumps({"error": f"shard unreachable: {error}"}).encode()
        except Exception as error:  # noqa: BLE001 - the router must answer
            status = 500
            answer = json.dumps(
                {"error": f"{type(error).__name__}: {error}"}).encode()
        retry_after: Optional[float] = None
        if status in (429, 503):
            try:
                retry_after = float(json.loads(answer).get("retry_after"))
            except (TypeError, ValueError):
                retry_after = None
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(answer)))
            if retry_after is not None:
                self.send_header("Retry-After",
                                 str(max(1, int(-(-retry_after // 1)))))
            self.end_headers()
            self.wfile.write(answer)
        except (BrokenPipeError, ConnectionResetError):
            pass
