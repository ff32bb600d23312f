"""The networked compilation gateway: a JSON REST API over the service.

:func:`build_server` wires a :class:`repro.service.CompilationService`
behind a ``ThreadingHTTPServer`` speaking plain JSON over HTTP — no
dependencies beyond the standard library.  Resources:

==========================================  ===============================
``POST /v1/jobs``                           submit one compilation (circuit
                                            as QASM source or ``to_dict()``
                                            JSON; technique or portfolio)
``GET /v1/jobs/{id}``                       job status + report
``GET /v1/jobs/{id}/result``                adapted circuit (JSON + QASM),
                                            cost, contenders; long-polls
                                            with ``?timeout=SECONDS`` (the
                                            one way to wait for a result)
``DELETE /v1/jobs/{id}``                    cancel
``POST /v1/batch``                          submit a workload manifest
``GET /v1/suite``                           bundled-benchmark index
``POST /v1/suite/{name}/compile``           compile a bundled benchmark
``POST /v1/circuits/validate``              parse + echo a circuit (wire-
                                            format round-trip check)
``GET /healthz``                            liveness + job counts
``GET /metrics``                            request counters, latency
                                            histograms, service statistics
                                            (``?format=prometheus`` for
                                            text exposition)
``POST /internal/drain``                    quiesce hook (sharding router)
==========================================  ===============================

With API keys configured (``build_server(auth=...)`` or the
``REPRO_API_KEYS`` environment variable) every ``/v1/*`` resource
requires ``Authorization: Bearer <key>`` or ``X-API-Key``; rejected
requests get 401/403/429 with ``Retry-After`` per
:mod:`repro.cluster.auth`, and saturated submissions are shed by
priority class per :mod:`repro.cluster.shedding`.

Submissions carry the circuit either as OpenQASM 2.0 *source text*
(never a server-side path — the gateway refuses path lookups from the
wire) or as the exact ``QuantumCircuit.to_dict()`` JSON; results come
back as the exact ``AdaptationResult.to_dict()`` payload (builder gates
as name + params) plus an OpenQASM export, so :class:`repro.server.ReproClient` reconstructs real
:class:`repro.core.AdaptationResult` objects on the other side.

The server shuts down *draining*: new submissions are rejected with 503
while queued and running jobs finish (``CompilationService.drain``), then
the worker pool winds down.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.api.registry import UnknownTechniqueError
from repro.circuits.circuit import QuantumCircuit
from repro.cluster.auth import AuthError, Authenticator, credential_from_headers
from repro.cluster.shedding import LoadShedder, ShedError, SheddingPolicy
from repro.hardware import spin_qubit_target
from repro.hardware.target import Target
from repro.interop import QasmError, QasmExportError, circuit_to_qasm, qasm_to_circuit
from repro.resilience.faults import active_fault_plan
from repro.service.scheduler import (
    CompilationService,
    JobStatus,
    ServiceSaturatedError,
)
from repro.service.store import PersistentResultStore
from repro.telemetry.instruments import (
    LONGPOLL_ACTIVE,
    SERVER_JOBS_TRACKED,
    SERVER_UPTIME,
    passes_snapshot,
    requests_snapshot,
)
from repro.telemetry.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.registry import REGISTRY, enable_telemetry
from repro.telemetry.resources import start_resource_sampler
from repro.trace.tracer import TRACE_HEADER, span
from repro.workloads.manifest import parse_manifest

#: Hard cap on how long one ``GET .../result?timeout=`` request blocks
#: server-side; clients long-poll in a loop for longer waits.
MAX_RESULT_WAIT_SECONDS = 60.0

#: Request bodies above this size are rejected with 413.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Server-side bounds on one ``POST /internal/drain`` wait: the endpoint
#: is reachable by anyone who can reach the port, so it must never pin a
#: handler thread indefinitely.
DEFAULT_DRAIN_WAIT_SECONDS = 60.0
MAX_DRAIN_WAIT_SECONDS = 600.0

#: Upper bucket bounds (milliseconds) of the request-latency histograms.
LATENCY_BUCKETS_MS = (1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)

#: ``Retry-After`` hint on 503 responses (queue full / shutting down).
RETRY_AFTER_SECONDS = 1.0

#: Request header carrying the compile deadline in seconds (equivalent
#: to the ``timeout`` field of the submission body, which wins if both
#: are given).
DEADLINE_HEADER = "X-Repro-Deadline"

#: Shape of a valid ``X-Repro-Trace`` value (``"pid:span"``).
_REMOTE_PARENT_RE = re.compile(r"^\d+:\d+$")

#: How often a waiting long-poll re-checks its client connection; an
#: abandoned ``GET .../result`` frees its handler thread within this.
LONGPOLL_POLL_SECONDS = 1.0


class _ClientGone(Exception):
    """The request's client disconnected mid-wait; answer nobody."""


class ApiError(Exception):
    """An error with an HTTP status and a JSON body.

    ``retry_after`` (seconds) makes the response carry a ``Retry-After``
    header — the backpressure contract 503s use so clients pace their
    retries instead of hammering a saturated or restarting server.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None, **extra: object) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.payload: Dict[str, object] = {"error": message, **extra}
        if retry_after is not None:
            self.payload["retry_after"] = retry_after


# ---------------------------------------------------------------------------
# Gateway jobs
# ---------------------------------------------------------------------------
class _GatewayJob:
    """One HTTP-visible job: a service handle or a portfolio future."""

    def __init__(self, job_id: str, name: str, kind: str, label: str) -> None:
        self.id = job_id
        self.name = name
        self.kind = kind  # "technique" | "portfolio"
        self.label = label
        self.handle = None  # JobHandle (technique jobs)
        self.future = None  # Future (portfolio jobs)
        self.submitted_at = time.time()

    def status(self) -> str:
        if self.handle is not None:
            return self.handle.status().value
        future = self.future
        if future is None or not future.done():
            if future is not None and future.running():
                return JobStatus.RUNNING.value
            return JobStatus.QUEUED.value
        if future.cancelled():
            return JobStatus.CANCELLED.value
        return (JobStatus.FAILED.value if future.exception() is not None
                else JobStatus.DONE.value)

    def done(self) -> bool:
        waiter = self.handle if self.handle is not None else self.future
        return waiter is not None and waiter.done()

    def wait(self, timeout: Optional[float]):
        waiter = self.handle if self.handle is not None else self.future
        return waiter.result(timeout=timeout)

    def cancel(self) -> bool:
        waiter = self.handle if self.handle is not None else self.future
        return bool(waiter.cancel())


# ---------------------------------------------------------------------------
# The gateway
# ---------------------------------------------------------------------------
class CompilationGateway:
    """HTTP-facing facade over one :class:`CompilationService`.

    Owns the job table (string job ids -> service handles), circuit and
    target decoding, the request metrics, and the draining shutdown.
    ``job_prefix`` namespaces the ids; the sharding router gives every
    worker process a distinct prefix (``s0-``, ``s1-``, ...) so a job id
    alone routes status lookups back to the right shard.
    """

    def __init__(
        self,
        service: CompilationService,
        durations: str = "D0",
        job_prefix: str = "",
        max_jobs: int = 10000,
        auth: Optional[Authenticator] = None,
        shedding: Union[LoadShedder, SheddingPolicy, bool, None] = True,
    ) -> None:
        self.service = service
        self.durations = durations
        self.job_prefix = job_prefix
        self.max_jobs = max_jobs
        self.auth = auth if auth is not None else Authenticator()
        if isinstance(shedding, LoadShedder):
            self.shedder: Optional[LoadShedder] = shedding
        elif isinstance(shedding, SheddingPolicy):
            self.shedder = LoadShedder(service.saturation, shedding)
        elif shedding:
            self.shedder = LoadShedder(service.saturation)
        else:
            self.shedder = None
        # /metrics serves per-pipeline-pass histograms alongside the
        # per-route ones; the registry aggregates in-process regardless
        # of whether JSONL tracing is on.  The resource sampler keeps
        # RSS/CPU/FD gauges fresh between scrapes.
        enable_telemetry()
        start_resource_sampler()
        REGISTRY.register_collector("gateway", self._collect_telemetry)
        self._jobs: "OrderedDict[str, _GatewayJob]" = OrderedDict()
        self._lock = threading.Lock()
        self._next_id = 0
        self._started_at = time.time()
        self._closed = False
        # Portfolio racing blocks one thread per request on the service's
        # futures; its own small pool keeps that off the HTTP threads.
        self._portfolio_pool = ThreadPoolExecutor(
            max_workers=max(4, service.workers),
            thread_name_prefix="repro-gateway-portfolio",
        )

    # -- auth / admission ------------------------------------------------
    def authorize(self, headers, shed: bool = False):
        """Admit one request: authenticate, then (on submissions) shed.

        Returns the matched :class:`repro.cluster.ApiKey` (``None`` when
        auth is not configured).  Raises :class:`ApiError` with the
        mapped status — 401/403/429 from auth, 503 from the shedder —
        and ``retry_after`` so clients pace themselves.
        """
        try:
            key = self.auth.authenticate(credential_from_headers(headers))
        except AuthError as error:
            extra: Dict[str, object] = {"key": error.key_name}
            if error.status == 429:
                extra["retry"] = True
            raise ApiError(error.status, str(error),
                           retry_after=error.retry_after, **extra) from None
        # Shedding is *per-key* admission: anonymous deployments keep the
        # plain ServiceSaturatedError contract (503, Retry-After 1) so a
        # keyless gateway behaves exactly as before the cluster layer.
        if shed and key is not None and self.shedder is not None:
            try:
                self.shedder.admit(key)
            except ShedError as error:
                raise ApiError(503, str(error), retry=True,
                               retry_after=error.retry_after,
                               shed=True) from None
        return key

    # -- decoding --------------------------------------------------------
    def parse_circuit(self, payload: Dict[str, object]) -> QuantumCircuit:
        """Decode the submission's circuit: QASM source or ``to_dict`` JSON.

        Server-side file paths are deliberately *not* accepted: a remote
        client must not be able to make the gateway read local files.
        """
        spec = payload.get("circuit", payload.get("qasm"))
        if spec is None:
            raise ApiError(400, "the submission needs a 'circuit' "
                                "(QASM source string or circuit JSON)")
        if isinstance(spec, str):
            try:
                return qasm_to_circuit(spec)
            except QasmError as error:
                raise ApiError(400, f"invalid QASM circuit: {error}") from None
        if isinstance(spec, dict):
            try:
                return QuantumCircuit.from_dict(spec)
            except (KeyError, TypeError, ValueError) as error:
                raise ApiError(
                    400, f"invalid circuit JSON: {type(error).__name__}: {error}"
                ) from None
        raise ApiError(400, "'circuit' must be a QASM source string or a "
                            "QuantumCircuit.to_dict() object")

    def resolve_target(self, spec, circuit: QuantumCircuit) -> Target:
        """Build the spin-qubit target a submission asks for.

        ``None`` sizes the default target to the circuit; a string picks
        the duration calibration (``"D0"``/``"D1"``); an object may set
        ``num_qubits``, ``durations`` and ``include_diabatic_cz``.
        """
        width = max(2, circuit.num_qubits)
        if spec is None:
            return spin_qubit_target(width, self.durations)
        if isinstance(spec, str):
            if spec not in ("D0", "D1"):
                raise ApiError(400, f"unknown target calibration {spec!r}; "
                                    "expected 'D0' or 'D1'")
            return spin_qubit_target(width, spec)
        if isinstance(spec, dict):
            unknown = set(spec) - {"num_qubits", "durations", "include_diabatic_cz"}
            if unknown:
                raise ApiError(400, f"unknown target key(s) {sorted(unknown)}")
            try:
                num_qubits = int(spec.get("num_qubits", width))
                target = spin_qubit_target(
                    num_qubits,
                    str(spec.get("durations", self.durations)),
                    include_diabatic_cz=bool(spec.get("include_diabatic_cz", True)),
                )
            except (TypeError, ValueError) as error:
                raise ApiError(400, f"invalid target: {error}") from None
            if target.num_qubits < circuit.num_qubits:
                raise ApiError(
                    400,
                    f"target has {target.num_qubits} qubits but the circuit "
                    f"needs {circuit.num_qubits}",
                )
            return target
        raise ApiError(400, "'target' must be null, 'D0'/'D1' or an object")

    @staticmethod
    def _resilience_settings(payload: Dict[str, object]):
        """Decode a submission's ``timeout``/``on_deadline``/``fallback``."""
        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise ApiError(400, f"invalid timeout {timeout!r}") from None
            if timeout < 0:
                raise ApiError(400, "'timeout' must be >= 0 seconds")
        on_deadline = payload.get("on_deadline")
        if on_deadline is not None and on_deadline not in ("raise", "degrade"):
            raise ApiError(400, f"invalid on_deadline {on_deadline!r}; "
                                "expected 'raise' or 'degrade'")
        fallback = payload.get("fallback")
        if fallback is not None and not isinstance(fallback, (bool, str, list)):
            raise ApiError(400, "'fallback' must be a bool, a technique key "
                                "or a list of technique keys")
        if isinstance(fallback, list):
            fallback = [str(key) for key in fallback]
        return timeout, on_deadline, fallback

    # -- submission ------------------------------------------------------
    def _new_job(self, name: str, kind: str, label: str) -> _GatewayJob:
        with self._lock:
            self._next_id += 1
            job = _GatewayJob(f"{self.job_prefix}j{self._next_id}",
                              name, kind, label)
            self._jobs[job.id] = job
            # Bound the table: oldest *finished* jobs fall off first.
            if len(self._jobs) > self.max_jobs:
                for job_id, old in list(self._jobs.items()):
                    if len(self._jobs) <= self.max_jobs:
                        break
                    if old.done():
                        del self._jobs[job_id]
        return job

    def submit_payload(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Handle ``POST /v1/jobs``: decode, enqueue, return the job stub."""
        if not isinstance(payload, dict):
            raise ApiError(400, "the request body must be a JSON object")
        circuit = self.parse_circuit(payload)
        name = str(payload.get("name") or circuit.name)
        return self.submit_circuit(circuit, payload, name=name)

    def submit_circuit(self, circuit: QuantumCircuit,
                       payload: Dict[str, object], name: str) -> Dict[str, object]:
        """Enqueue an already-decoded circuit under ``payload``'s settings."""
        if self._closed:
            raise ApiError(503, "the server is shutting down",
                           retry_after=RETRY_AFTER_SECONDS)
        target = self.resolve_target(payload.get("target"), circuit)
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ApiError(400, "'options' must be an object")
        use_cache = bool(payload.get("use_cache", True))
        timeout, on_deadline, fallback = self._resilience_settings(payload)
        portfolio = payload.get("portfolio")
        technique = payload.get("technique")
        if portfolio is not None and technique is not None:
            raise ApiError(400, "give either 'technique' or 'portfolio', not both")

        if portfolio is not None:
            if timeout is not None or on_deadline is not None or fallback is not None:
                raise ApiError(400, "deadlines ('timeout'/'on_deadline'/"
                                    "'fallback') apply to technique jobs, "
                                    "not portfolios")
            if isinstance(portfolio, str):
                portfolio = [key.strip() for key in portfolio.split(",") if key.strip()]
            if not isinstance(portfolio, list) or not portfolio:
                raise ApiError(400, "'portfolio' must be a non-empty list of "
                                    "technique keys")
            policy = str(payload.get("policy", "combined"))
            job = self._new_job(name, "portfolio",
                                "+".join(str(key) for key in portfolio))
            job.future = self._portfolio_pool.submit(
                self.service.compile_portfolio, circuit, target,
                [str(key) for key in portfolio],
                policy=policy, use_cache=use_cache, **options,
            )
        else:
            key = str(technique or "sat_p")
            try:
                handle = self.service.submit(
                    circuit, target, key,
                    use_cache=use_cache, block=False, timeout=timeout,
                    on_deadline=on_deadline, fallback=fallback, **options,
                )
            except ServiceSaturatedError as error:
                raise ApiError(503, str(error), retry=True,
                               retry_after=RETRY_AFTER_SECONDS) from None
            except UnknownTechniqueError as error:
                raise ApiError(
                    400, f"unknown technique {key!r}",
                    available=sorted(error.known),
                ) from None
            except (TypeError, ValueError) as error:
                raise ApiError(400, f"invalid submission: {error}") from None
            job = self._new_job(name, "technique", handle.technique)
            job.handle = handle
        return self.job_summary(job)

    def submit_batch(self, payload) -> Dict[str, object]:
        """Handle ``POST /v1/batch``: a workload manifest over the wire."""
        if self._closed:
            raise ApiError(503, "the server is shutting down",
                           retry_after=RETRY_AFTER_SECONDS)
        try:
            workloads, defaults = parse_manifest(payload, allow_qasm_paths=False)
        except (TypeError, ValueError, KeyError) as error:
            raise ApiError(400, f"invalid manifest: {error}") from None
        if not workloads:
            raise ApiError(400, "the manifest contains no workloads")
        settings = {
            "target": defaults.get("target"),
            "technique": defaults.get("technique"),
            "portfolio": defaults.get("portfolio"),
            "policy": defaults.get("policy", "combined"),
            "options": defaults.get("options") or {},
            "use_cache": defaults.get("use_cache", True),
            "timeout": defaults.get("timeout"),
            "on_deadline": defaults.get("on_deadline"),
            "fallback": defaults.get("fallback"),
        }
        if settings["technique"] is None and settings["portfolio"] is None:
            settings["technique"] = "sat_p"
        # Per-workload submit errors (full queue, circuit wider than the
        # manifest's target, ...) must not abort the batch mid-way: jobs
        # already enqueued would be orphaned with their ids never
        # returned.  Every accepted job id and every rejection comes back.
        jobs: List[Dict[str, object]] = []
        errors: List[Dict[str, object]] = []
        for name, circuit in workloads:
            try:
                jobs.append(self.submit_circuit(circuit, settings, name=name))
            except ApiError as error:
                errors.append({"name": name, "status": error.status,
                               **error.payload})
        return {"jobs": jobs, "errors": errors, "count": len(jobs)}

    def submit_suite(self, name: str, payload: Dict[str, object]) -> Dict[str, object]:
        """Handle ``POST /v1/suite/{name}/compile``."""
        from repro.interop import suite_circuit

        try:
            circuit = suite_circuit(name)
        except KeyError as error:
            raise ApiError(404, str(error.args[0]) if error.args else
                           f"unknown suite benchmark {name!r}") from None
        if not isinstance(payload, dict):
            raise ApiError(400, "the request body must be a JSON object")
        return self.submit_circuit(circuit, payload,
                                   name=str(payload.get("name") or name))

    # -- lookup ----------------------------------------------------------
    def _job(self, job_id: str) -> _GatewayJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown job {job_id!r}")
        return job

    def job_summary(self, job: _GatewayJob) -> Dict[str, object]:
        summary = {
            "job_id": job.id,
            "name": job.name,
            "kind": job.kind,
            "technique": job.label,
            "status": job.status(),
            "submitted_at": job.submitted_at,
        }
        if job.handle is not None:
            # Technique jobs expose the service's lifecycle stamps, so
            # callers can split queue wait from compile time.
            summary["timing"] = job.handle.timing()
        return summary

    def job_status(self, job_id: str) -> Dict[str, object]:
        """Handle ``GET /v1/jobs/{id}``: summary + report once finished."""
        job = self._job(job_id)
        summary = self.job_summary(job)
        if job.done():
            try:
                result = job.wait(timeout=0)
            except CancelledError:
                pass
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                summary["error"] = f"{type(error).__name__}: {error}"
            else:
                if result.report is not None:
                    summary["report"] = result.report.to_dict()
        return summary

    def job_result(self, job_id: str, timeout: Optional[float],
                   is_alive=None) -> Tuple[int, Dict[str, object]]:
        """Handle ``GET /v1/jobs/{id}/result`` with long-poll semantics.

        Returns ``(202, status stub)`` while the job is still pending
        after ``timeout`` seconds (capped server-side); 410 for cancelled
        jobs, 422 for failed compilations, 200 with the full payload on
        success.

        The wait runs in short slices, probing ``is_alive`` between
        them: an abandoned long-poll frees its handler thread within
        :data:`LONGPOLL_POLL_SECONDS` instead of blocking out the full
        timeout (the job itself keeps running).
        """
        job = self._job(job_id)
        wait = MAX_RESULT_WAIT_SECONDS if timeout is None else max(
            0.0, min(float(timeout), MAX_RESULT_WAIT_SECONDS))
        deadline = time.monotonic() + wait
        LONGPOLL_ACTIVE.inc()
        try:
            while True:
                remaining = deadline - time.monotonic()
                try:
                    result = job.wait(
                        timeout=min(LONGPOLL_POLL_SECONDS,
                                    max(0.0, remaining)))
                    break
                except (FutureTimeoutError, TimeoutError):
                    if remaining <= 0:
                        return 202, self.job_summary(job)
                    if is_alive is not None and not is_alive():
                        raise _ClientGone() from None
        except CancelledError:
            raise ApiError(410, f"job {job_id} was cancelled",
                           job_id=job_id, job_status="cancelled") from None
        except _ClientGone:
            raise
        except Exception as error:  # noqa: BLE001 - surfaced to the client
            raise ApiError(
                422, f"compilation failed: {type(error).__name__}: {error}",
                job_id=job_id, job_status="failed",
            ) from None
        finally:
            LONGPOLL_ACTIVE.dec()
        payload = self.job_summary(job)
        payload["result"] = result.to_dict()
        payload["cost"] = result.cost.to_dict()
        if result.report is not None and result.report.contenders:
            payload["contenders"] = result.report.contenders
        try:
            payload["qasm"] = circuit_to_qasm(result.adapted_circuit)
        except QasmExportError:
            payload["qasm"] = None
        return 200, payload

    def cancel_job(self, job_id: str) -> Dict[str, object]:
        """Handle ``DELETE /v1/jobs/{id}``."""
        job = self._job(job_id)
        cancelled = job.cancel()
        summary = self.job_summary(job)
        summary["cancelled"] = cancelled
        return summary

    # -- suite index, validation, health, metrics ------------------------
    def suite_index(self) -> Dict[str, object]:
        from repro.interop import load_suite

        benchmarks = []
        for entry in load_suite():
            metadata = dict(entry.metadata())
            metadata["name"] = entry.name
            metadata["description"] = entry.description
            benchmarks.append(metadata)
        return {"benchmarks": benchmarks, "count": len(benchmarks)}

    def validate_circuit(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Parse a submitted circuit and echo its canonical wire form.

        The returned ``circuit`` is the exact ``to_dict()`` of what the
        server decoded — the bit-exact round-trip contract the property
        tests pin down — plus the QASM export and headline metadata.
        """
        if not isinstance(payload, dict):
            raise ApiError(400, "the request body must be a JSON object")
        circuit = self.parse_circuit(payload)
        try:
            qasm = circuit_to_qasm(circuit)
        except QasmExportError:
            qasm = None
        return {
            "circuit": circuit.to_dict(),
            "qasm": qasm,
            "name": circuit.name,
            "num_qubits": circuit.num_qubits,
            "gates": len(circuit.instructions),
        }

    def healthz(self) -> Dict[str, object]:
        with self._lock:
            jobs = list(self._jobs.values())
        by_status: Dict[str, int] = {}
        for job in jobs:
            status = job.status()
            by_status[status] = by_status.get(status, 0) + 1
        return {
            "status": "draining" if self._closed else "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self._started_at,
            "jobs": {"total": len(jobs), **by_status},
        }

    def _collect_telemetry(self) -> None:
        """Scrape-time collector: gauges only the gateway knows."""
        SERVER_UPTIME.set(time.time() - self._started_at)
        SERVER_JOBS_TRACKED.set(len(self._jobs))

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` document: service stats + request telemetry."""
        from repro.golden import quality_summary

        return {
            "server": {
                "version": __version__,
                "uptime_seconds": time.time() - self._started_at,
                "job_prefix": self.job_prefix,
                "jobs_tracked": len(self._jobs),
            },
            "auth": {
                "enabled": self.auth.enabled,
                "keys": len(self.auth),
                "enforce_limits": self.auth.enforce_limits,
            },
            "shedding": (self.shedder.snapshot()
                         if self.shedder is not None else None),
            # service.statistics() is JSON-safe by contract (regression-
            # tested) and the local sections are plain numbers/strings,
            # so nothing needs a coercion pass here.
            "service": self.service.statistics(),
            "requests": requests_snapshot(),
            "passes": passes_snapshot(),
            # The raw registry view the JSON blocks above are carved
            # from: every family, with windowed rates/percentiles.
            "telemetry": REGISTRY.collect(),
            # Last golden-quality run: verdict counts + worst regression
            # (in-process run if any, else the BENCH_quality.json named
            # by REPRO_QUALITY_REPORT).  Never raises by contract.
            "quality": quality_summary(),
        }

    def prometheus_document(self) -> str:
        """``/metrics?format=prometheus``: the registry in text format.

        Sharded deployments self-label: the job prefix (``s0-``) becomes
        a ``shard`` label on every sample so the router can concatenate
        shard documents under one HELP/TYPE header per family.
        """
        shard = self.job_prefix.rstrip("-")
        extra = {"shard": shard} if shard else None
        return render_prometheus(REGISTRY.collect(), extra_labels=extra)

    def drain(self, timeout: Optional[float]) -> Dict[str, object]:
        """Handle ``POST /internal/drain``: quiesce the whole gateway.

        Outstanding *portfolio* jobs are awaited first — a pool-queued
        portfolio race may not have reached ``service.submit`` yet, so
        draining only the service queue could report idle while accepted
        jobs still wait to start (and the sharding router would then
        terminate the process under them).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        with self._lock:
            portfolios = [job.future for job in self._jobs.values()
                          if job.kind == "portfolio" and job.future is not None]
        for future in portfolios:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                future.result(timeout=remaining)
            except (FutureTimeoutError, TimeoutError):
                drained = False
                break
            except (CancelledError, Exception):  # noqa: BLE001 - terminal is terminal
                pass
        if drained:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            drained = self.service.drain(timeout=remaining)
        return {"drained": drained, "service": self.service.statistics()}

    # -- lifecycle -------------------------------------------------------
    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Reject new work, optionally drain in-flight jobs, stop the pool."""
        self._closed = True
        if REGISTRY.get_collector("gateway") == self._collect_telemetry:
            REGISTRY.unregister_collector("gateway")
        if drain:
            self.service.drain(timeout=timeout)
        self._portfolio_pool.shutdown(wait=drain)
        self.service.shutdown(wait=drain, cancel_pending=not drain)


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------
#: (method, path regex, gateway dispatch name, metrics label).
_ROUTES: List[Tuple[str, "re.Pattern[str]", str, str]] = [
    ("GET", re.compile(r"^/healthz$"), "healthz", "GET /healthz"),
    ("GET", re.compile(r"^/metrics$"), "metrics", "GET /metrics"),
    ("POST", re.compile(r"^/v1/jobs$"), "submit", "POST /v1/jobs"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[^/]+)$"), "status",
     "GET /v1/jobs/{id}"),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[^/]+)/result$"), "result",
     "GET /v1/jobs/{id}/result"),
    ("DELETE", re.compile(r"^/v1/jobs/(?P<job_id>[^/]+)$"), "cancel",
     "DELETE /v1/jobs/{id}"),
    ("POST", re.compile(r"^/v1/batch$"), "batch", "POST /v1/batch"),
    ("GET", re.compile(r"^/v1/suite$"), "suite", "GET /v1/suite"),
    ("POST", re.compile(r"^/v1/suite/(?P<name>[^/]+)/compile$"),
     "suite_compile", "POST /v1/suite/{name}/compile"),
    ("POST", re.compile(r"^/v1/circuits/validate$"), "validate",
     "POST /v1/circuits/validate"),
    ("POST", re.compile(r"^/internal/drain$"), "drain", "POST /internal/drain"),
]

#: Actions that stay reachable without an API key even when auth is on:
#: ops probes and the node-internal drain hook (deployments firewall
#: ``/internal/*`` and the metrics port; API keys protect ``/v1/*``).
_AUTH_EXEMPT = frozenset({"healthz", "metrics", "drain"})

#: Actions that enqueue new work and therefore pass the load shedder.
_SHED_ACTIONS = frozenset({"submit", "batch", "suite_compile"})


class _TextResponse:
    """A non-JSON response body (Prometheus exposition) + content type."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's gateway."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-server/{__version__}"

    #: The owning ReproServer sets this per server class copy.
    gateway: CompilationGateway

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # Telemetry lives in /metrics, not on stderr.

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- internals -------------------------------------------------------
    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ApiError(400, "invalid Content-Length header") from None
        if length < 0:
            # rfile.read(-1) would block until client EOF — a held-open
            # connection would pin this handler thread forever.
            raise ApiError(400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(400, f"request body is not valid JSON: {error}") from None

    def _connection_alive(self) -> bool:
        """Probe whether the request's client socket is still open.

        A waiting GET has nothing left to send, so readability here
        means either EOF (client closed — ``recv`` peeks ``b""``) or
        stray pipelined bytes (treated as alive; the next request will
        deal with them).  Errors count as dead: the wait should end.
        """
        try:
            readable, _, _ = select.select([self.connection], [], [], 0)
            if not readable:
                return True
            return bool(self.connection.recv(1, socket.MSG_PEEK))
        except (OSError, ValueError):
            return False

    def _query_timeout(self, query: Dict[str, List[str]]) -> Optional[float]:
        values = query.get("timeout")
        if not values:
            return None
        try:
            return float(values[0])
        except ValueError:
            raise ApiError(400, f"invalid timeout {values[0]!r}") from None

    def _with_deadline_header(self, payload):
        """Fold an ``X-Repro-Deadline`` header into a submission body.

        The body's own ``timeout`` field wins when both are present.
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None or not isinstance(payload, dict):
            return payload
        try:
            deadline = float(raw)
        except ValueError:
            raise ApiError(
                400, f"invalid {DEADLINE_HEADER} header {raw!r}") from None
        payload.setdefault("timeout", deadline)
        return payload

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        label = f"{method} <unmatched>"
        status, payload = 500, {"error": "internal error"}
        retry_after: Optional[float] = None
        begin_fields: Dict[str, object] = {"method": method}
        # A caller's propagation header ("pid:span") stitches its span
        # tree onto this request's; the structural parent stays local so
        # per-process trace invariants hold.  Malformed values (anyone
        # can set a header) are dropped, not trusted.
        remote = self.headers.get(TRACE_HEADER)
        if remote and _REMOTE_PARENT_RE.match(remote):
            begin_fields["remote_parent"] = remote
        request_span = span("http.request", "server", **begin_fields)
        # The span ends once, after the response is written.  Status 0
        # marks a request nobody was answered on (the client went away,
        # or a fault aborted the response): traced, but not counted.
        answered = 0
        try:
            try:
                matched = None
                path_exists = False
                for route_method, pattern, action, route_label in _ROUTES:
                    match = pattern.match(parsed.path)
                    if match is None:
                        continue
                    path_exists = True
                    if route_method == method:
                        matched = (action, route_label, match)
                        break
                if matched is None:
                    # All unmatched paths share the one "<unmatched>"
                    # metrics label — a scanner probing thousands of
                    # distinct URLs must not grow one series per path.
                    raise ApiError(405 if path_exists else 404,
                                   f"no such resource: {method} {parsed.path}")
                action, label, match = matched
                query = parse_qs(parsed.query)
                if action not in _AUTH_EXEMPT:
                    self.gateway.authorize(self.headers,
                                           shed=action in _SHED_ACTIONS)
                status, payload = self._handle(action, match, query)
            except ApiError as error:
                status, payload = error.status, error.payload
                retry_after = error.retry_after
            except (BrokenPipeError, _ClientGone):
                # Client went away mid-request; nothing to answer.
                self.close_connection = True
                return
            except Exception as error:  # noqa: BLE001 - the server must answer
                status = 500
                payload = {"error": f"{type(error).__name__}: {error}"}
            plan = active_fault_plan()
            if plan is not None:
                # Fault injection: delay and/or drop this response.  The
                # abort closes the socket without answering — the client
                # sees a connection error mid-read, the retry territory
                # its resilience tests exercise.
                for spec in plan.delay("http.response"):
                    if spec.action == "abort":
                        self.close_connection = True
                        try:
                            self.connection.close()
                        except OSError:
                            pass
                        return
            self._respond(status, payload, retry_after=retry_after)
            answered = status
        finally:
            request_span.end(route=label, status=answered)

    def _handle(self, action: str, match, query) -> Tuple[int, Dict[str, object]]:
        gateway = self.gateway
        if action == "healthz":
            return 200, gateway.healthz()
        if action == "metrics":
            if "prometheus" in (query.get("format") or ()):
                return 200, _TextResponse(gateway.prometheus_document(),
                                          PROMETHEUS_CONTENT_TYPE)
            return 200, gateway.metrics_snapshot()
        if action == "submit":
            return 202, gateway.submit_payload(
                self._with_deadline_header(self._read_json()))
        if action == "status":
            return 200, gateway.job_status(match.group("job_id"))
        if action == "result":
            return gateway.job_result(match.group("job_id"),
                                      self._query_timeout(query),
                                      is_alive=self._connection_alive)
        if action == "cancel":
            return 200, gateway.cancel_job(match.group("job_id"))
        if action == "batch":
            return 202, gateway.submit_batch(
                self._with_deadline_header(self._read_json()))
        if action == "suite":
            return 200, gateway.suite_index()
        if action == "suite_compile":
            return 202, gateway.submit_suite(
                match.group("name"),
                self._with_deadline_header(self._read_json()))
        if action == "validate":
            return 200, gateway.validate_circuit(self._read_json())
        if action == "drain":
            body = self._read_json()
            timeout = body.get("timeout") if isinstance(body, dict) else None
            try:
                wait = (float(timeout) if timeout is not None
                        else DEFAULT_DRAIN_WAIT_SECONDS)
            except (TypeError, ValueError):
                raise ApiError(400, f"invalid drain timeout {timeout!r}") from None
            return 200, gateway.drain(
                max(0.0, min(wait, MAX_DRAIN_WAIT_SECONDS)))
        raise ApiError(500, f"unrouted action {action!r}")  # pragma: no cover

    def _respond(self, status: int, payload,
                 retry_after: Optional[float] = None) -> None:
        if isinstance(payload, _TextResponse):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            content_type = "application/json"
        if status >= 400:
            # Error paths may answer before the request body was read
            # (404/405 routing, 413 oversize); leftover body bytes would
            # be parsed as the next request line on a kept-alive
            # connection, so errors always close it.
            self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                # Integer seconds per RFC 9110 (rounded up, so a client
                # honoring the header never retries early).
                self.send_header("Retry-After",
                                 str(max(1, int(-(-retry_after // 1)))))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # Client went away; the job (if any) keeps running.

class ReproServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`CompilationGateway`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 gateway: CompilationGateway) -> None:
        handler = type("_BoundHandler", (_Handler,), {"gateway": gateway})
        super().__init__(address, handler)
        self.gateway = gateway
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> "ReproServer":
        """Run ``serve_forever`` on a daemon thread and return ``self``."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-server", daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Draining shutdown: close the listener, finish in-flight jobs.

        New connections stop being accepted first; queued and running
        compilations then finish (unless ``drain=False``, which cancels
        what it can) and the service's worker pool exits.
        """
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.gateway.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=True)


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    store: Union[PersistentResultStore, str, None] = None,
    durations: str = "D0",
    max_pending: int = 256,
    job_prefix: str = "",
    service: Optional[CompilationService] = None,
    trace: Optional[str] = None,
    auth=None,
    enforce_limits: bool = True,
    shedding: Union[LoadShedder, SheddingPolicy, bool, None] = True,
) -> ReproServer:
    """Assemble service + gateway + HTTP server (not yet serving).

    ``port=0`` binds an OS-assigned free port (see ``server.port``).
    Pass an existing ``service`` to serve it directly; otherwise one is
    created with ``workers``/``max_pending``/``store`` (``store``
    accepts a store instance, a ``dir:PATH`` spec or a directory path,
    see :func:`repro.service.resolve_store_backend`).

    ``auth`` is an :class:`repro.cluster.Authenticator`, a key-config
    dict/JSON/path, or ``None`` (falls back to ``$REPRO_API_KEYS``; with
    nothing configured the server is open).  ``enforce_limits=False``
    makes this gateway validate keys without charging rate limits — the
    mode shards behind a charging router run in.  ``shedding`` tunes the
    saturation-tied admission policy (``False`` disables it).

    ``trace`` enables structured JSONL event tracing into the given path
    for the server's lifetime (see :mod:`repro.trace`).  Call
    ``start_background()`` (tests, embedding) or ``serve_forever()``
    (CLI) on the returned server, and ``stop()`` to shut down draining.
    """
    if service is None:
        service = CompilationService(
            workers=workers, max_pending=max_pending,
            store=store, trace=trace)
    elif trace is not None:
        from repro.trace.tracer import start_tracing

        start_tracing(trace)
    authenticator = Authenticator.from_spec(auth, enforce_limits=enforce_limits)
    gateway = CompilationGateway(service, durations=durations,
                                 job_prefix=job_prefix,
                                 auth=authenticator, shedding=shedding)
    return ReproServer((host, port), gateway)
