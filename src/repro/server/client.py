"""A blocking HTTP client mirroring the local compilation API.

:class:`ReproClient` speaks the gateway's JSON protocol with nothing but
``urllib``::

    from repro.server import ReproClient

    client = ReproClient("http://127.0.0.1:8000")
    result = client.compile(circuit, technique="sat_p")   # AdaptationResult
    job = client.submit(qasm_text, technique="direct")    # async
    print(job.status())
    result = job.result(timeout=60)

Results come back as real :class:`repro.core.AdaptationResult` objects
(rebuilt from the wire payload's exact ``to_dict()`` form), so code
written against :func:`repro.compile` ports by swapping the call site.

Transient transport failures (connection refused/reset, 502/503) are
retried with exponential backoff; every HTTP error status maps to a
typed :class:`ServerError` subclass carrying the decoded error payload.
"""

from __future__ import annotations

import json
import os
import socket
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import quote

from repro.circuits.circuit import QuantumCircuit
from repro.core.adapter import AdaptationResult
from repro.hardware.target import Target
from repro.trace.tracer import TRACE_HEADER, span

#: Per-request cap on the server-side long-poll slice (the server caps at
#: 60 s; staying under it keeps one HTTP round trip per slice).
_POLL_SLICE_SECONDS = 30.0


class ServerError(RuntimeError):
    """Base error for every non-2xx gateway response.

    ``status`` is the HTTP status code (``None`` for transport-level
    failures) and ``payload`` the decoded JSON error body, when any.
    """

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[Dict[str, object]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class BadRequestError(ServerError):
    """400: the submission itself was malformed."""


class AuthenticationError(ServerError):
    """401: the request carried no API key, or an unknown one."""


class PermissionDeniedError(ServerError):
    """403: the API key is recognized but not allowed (e.g. expired)."""


class RateLimitedError(ServerError):
    """429: the key is over its rate limit or daily quota.

    Retried automatically (honoring ``Retry-After``) when the server
    marks it transient and the retry budget allows.
    """


class JobNotFoundError(ServerError):
    """404: unknown job id or resource."""


class JobCancelledError(ServerError):
    """410: the job was cancelled before producing a result."""


class CompilationFailedError(ServerError):
    """422: the compilation ran and failed; the message carries the cause."""


class ServerSaturatedError(ServerError):
    """503: the job queue is full or the server is draining."""


class ServerUnavailableError(ServerError):
    """The server could not be reached (after retries)."""


_STATUS_ERRORS = {
    400: BadRequestError,
    401: AuthenticationError,
    403: PermissionDeniedError,
    404: JobNotFoundError,
    405: BadRequestError,
    410: JobCancelledError,
    413: BadRequestError,
    422: CompilationFailedError,
    429: RateLimitedError,
    503: ServerSaturatedError,
}

def _error_for(status: int, payload: Dict[str, object]) -> ServerError:
    message = str(payload.get("error") or f"server returned HTTP {status}")
    cls = _STATUS_ERRORS.get(status, ServerError)
    return cls(message, status=status, payload=payload)


class RemoteJob:
    """Client-side handle to one server-side job (compare ``JobHandle``)."""

    def __init__(self, client: "ReproClient", summary: Dict[str, object]) -> None:
        self._client = client
        self.job_id = str(summary["job_id"])
        self.name = summary.get("name")
        self.technique = summary.get("technique")
        self.kind = summary.get("kind", "technique")

    def status(self) -> str:
        """Current lifecycle state string (``queued``/``running``/...)."""
        return str(self._client.job_status(self.job_id)["status"])

    def done(self) -> bool:
        return self.status() in ("done", "failed", "cancelled")

    def result(self, timeout: Optional[float] = None) -> AdaptationResult:
        """Block for the :class:`AdaptationResult` (long-polling)."""
        return self._client.result(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        return self._client.cancel(self.job_id)

    def __repr__(self) -> str:
        return f"RemoteJob(id={self.job_id!r}, technique={self.technique!r})"


class ReproClient:
    """Blocking JSON-over-HTTP client for :mod:`repro.server`.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8000"`` (trailing slash tolerated).
    timeout:
        Socket timeout per HTTP request, seconds.
    retries:
        How many times a *transient* failure (connection refused/reset,
        502/503/504) is retried before giving up.
    backoff:
        Initial retry delay in seconds; doubles per attempt.  A 503
        carrying a ``Retry-After`` header overrides the backoff for that
        attempt — the server knows its own recovery horizon better.
    max_retry_seconds:
        Hard cap on the total wall-clock one request may spend retrying
        (sleeps included); the last transient error is raised once the
        cap would be exceeded.
    api_key:
        Credential sent as ``Authorization: Bearer <key>`` on every
        request.  Defaults to ``$REPRO_API_KEY`` when unset; pass
        ``api_key=""`` to force anonymous requests.
    """

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 3, backoff: float = 0.2,
                 max_retry_seconds: float = 60.0,
                 api_key: Optional[str] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_retry_seconds = max_retry_seconds
        if api_key is None:
            api_key = os.environ.get("REPRO_API_KEY") or None
        self.api_key = api_key or None

    # -- transport -------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[object] = None,
                 timeout: Optional[float] = None) -> Dict[str, object]:
        status, body = self._request_status(method, path, payload, timeout)
        return body

    def _request_status(self, method: str, path: str,
                        payload: Optional[object] = None,
                        timeout: Optional[float] = None):
        """One HTTP exchange with retries; returns ``(status, json body)``.

        POSTs are retried too.  With caching on (the default) that is
        harmless: identical submissions coalesce onto one in-flight job
        or hit the cache, so the work runs once even if the first
        response was lost.  With ``use_cache=False`` a retry after a
        lost *response* (connection reset mid-reply) can enqueue a
        second, uncollected compilation — set ``retries=0`` on the
        client if that matters more than robustness to flaky networks.
        """
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if payload is not None:
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # When this process traces, the exchange gets a client-layer span
        # and its identity rides the propagation header so the gateway's
        # request span records us as its remote parent.
        request_span = span("client.request", "client",
                            method=method, path=path.split("?", 1)[0])
        if request_span.span_id is not None:
            headers[TRACE_HEADER] = f"{os.getpid()}:{request_span.span_id}"
        final_status: Optional[int] = None
        try:
            delay = self.backoff
            started = time.monotonic()
            last_error: Optional[ServerError] = None
            for attempt in range(self.retries + 1):
                request = urllib.request.Request(url, data=data, headers=headers,
                                                 method=method)
                retry_after: Optional[float] = None
                try:
                    with urllib.request.urlopen(
                        request, timeout=timeout or self.timeout
                    ) as response:
                        final_status = response.status
                        return response.status, self._decode(response.read())
                except urllib.error.HTTPError as error:
                    body = self._decode(error.read())
                    final_status = error.code
                    # 502/504 (routing-layer trouble) always retries; 503
                    # and 429 only when the server marked them transient
                    # (full queue, token bucket refilling) — a draining
                    # server or an exhausted daily quota will never come
                    # back for this request.
                    retryable = error.code in (502, 504) or (
                        error.code in (429, 503) and bool(
                            body.get("retry") or body.get("retry_after"))
                    )
                    if retryable:
                        last_error = _error_for(error.code, body)
                        retry_after = self._retry_after(error, body)
                    else:
                        raise _error_for(error.code, body) from None
                except (urllib.error.URLError, ConnectionError,
                        socket.timeout, TimeoutError) as error:
                    reason = getattr(error, "reason", error)
                    last_error = ServerUnavailableError(
                        f"cannot reach {url}: {reason}")
                if attempt < self.retries:
                    pause = delay if retry_after is None else retry_after
                    # Bound the total retry wall-clock: when the next sleep
                    # would blow the cap, surface the last error instead.
                    elapsed = time.monotonic() - started
                    if elapsed + pause > self.max_retry_seconds:
                        break
                    time.sleep(pause)
                    delay *= 2
            raise last_error  # type: ignore[misc]
        finally:
            request_span.end(status=final_status)

    @staticmethod
    def _retry_after(error: urllib.error.HTTPError,
                     body: Dict[str, object]) -> Optional[float]:
        """The server's retry hint: ``Retry-After`` header or JSON field."""
        raw = error.headers.get("Retry-After") if error.headers else None
        if raw is None:
            raw = body.get("retry_after")
        try:
            seconds = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        return max(0.0, seconds)

    @staticmethod
    def _decode(raw: bytes) -> Dict[str, object]:
        if not raw:
            return {}
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {"error": raw[:512].decode("utf-8", "replace")}
        return decoded if isinstance(decoded, dict) else {"value": decoded}

    # -- payload helpers -------------------------------------------------
    @staticmethod
    def _circuit_payload(circuit: Union[QuantumCircuit, str, dict]) -> object:
        """Normalize a circuit argument to its wire form.

        ``QuantumCircuit`` travels as its exact ``to_dict()`` JSON; a
        string travels as QASM *source* (the server never reads paths);
        a dict is assumed to already be wire-form circuit JSON.
        """
        if isinstance(circuit, QuantumCircuit):
            return circuit.to_dict()
        if isinstance(circuit, (str, dict)):
            return circuit
        raise TypeError(
            f"cannot send {type(circuit).__name__} over the wire; expected "
            "a QuantumCircuit, QASM source text or circuit JSON"
        )

    @staticmethod
    def _target_payload(target) -> object:
        """Normalize a target argument to its wire form."""
        if target is None or isinstance(target, (str, dict)):
            return target
        if isinstance(target, Target):
            # The spin-qubit targets serialize by calibration name
            # ("spin-D0"); anything else has no wire form yet.
            match = target.name.rsplit("-", 1)
            if len(match) == 2 and match[1] in ("D0", "D1"):
                return {"num_qubits": target.num_qubits, "durations": match[1]}
            raise TypeError(
                f"target {target.name!r} has no wire form; pass a "
                "{'num_qubits': ..., 'durations': ...} object instead"
            )
        raise TypeError(f"cannot send {type(target).__name__} as a target")

    # -- the mirrored API ------------------------------------------------
    def submit(
        self,
        circuit: Union[QuantumCircuit, str, dict],
        target=None,
        technique: Optional[str] = None,
        *,
        portfolio: Optional[Sequence[str]] = None,
        policy: Optional[str] = None,
        use_cache: bool = True,
        name: Optional[str] = None,
        deadline: Optional[float] = None,
        on_deadline: Optional[str] = None,
        fallback: Union[None, bool, str, Sequence[str]] = None,
        **options: object,
    ) -> RemoteJob:
        """Enqueue one compilation; returns a :class:`RemoteJob` handle.

        ``deadline`` is the *server-side* compile budget in seconds
        (``compile(timeout=...)`` semantics); ``on_deadline="degrade"``
        with an optional ``fallback`` ladder makes the server fall back
        to cheaper techniques instead of failing the job.
        """
        payload: Dict[str, object] = {
            "circuit": self._circuit_payload(circuit),
            "target": self._target_payload(target),
            "use_cache": use_cache,
        }
        if portfolio is not None:
            payload["portfolio"] = list(portfolio)
            if policy is not None:
                payload["policy"] = policy
        else:
            payload["technique"] = technique or "sat_p"
        if options:
            payload["options"] = dict(options)
        if name is not None:
            payload["name"] = name
        if deadline is not None:
            payload["timeout"] = float(deadline)
        if on_deadline is not None:
            payload["on_deadline"] = on_deadline
        if fallback is not None:
            payload["fallback"] = (list(fallback)
                                   if isinstance(fallback, (list, tuple))
                                   else fallback)
        return RemoteJob(self, self._request("POST", "/v1/jobs", payload))

    def job_status(self, job_id: str) -> Dict[str, object]:
        """The server's status document for one job."""
        return self._request("GET", f"/v1/jobs/{quote(job_id, safe='')}")

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> AdaptationResult:
        """Block until the job finishes; long-polls the result resource.

        Raises :class:`CompilationFailedError` /
        :class:`JobCancelledError` on terminal failure and
        ``TimeoutError`` when ``timeout`` elapses first.
        """
        payload = self.result_payload(job_id, timeout=timeout)
        return AdaptationResult.from_dict(payload["result"])

    def result_payload(self, job_id: str,
                       timeout: Optional[float] = None) -> Dict[str, object]:
        """The raw result document (circuit JSON + QASM + cost + contenders)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        path = f"/v1/jobs/{quote(job_id, safe='')}/result"
        while True:
            wait = _POLL_SLICE_SECONDS
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            status, payload = self._request_status(
                "GET", f"{path}?timeout={wait:.3f}",
                timeout=max(self.timeout, wait + 30.0),
            )
            if status == 200:
                return payload
            # 202: still pending after the server-side slice.
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload.get('status', 'pending')} "
                    f"after {timeout} seconds"
                )

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``True`` when the cancellation took effect."""
        payload = self._request("DELETE", f"/v1/jobs/{quote(job_id, safe='')}")
        return bool(payload.get("cancelled"))

    def compile(
        self,
        circuit: Union[QuantumCircuit, str, dict],
        target=None,
        technique: str = "sat_p",
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        on_deadline: Optional[str] = None,
        fallback: Union[None, bool, str, Sequence[str]] = None,
        use_cache: bool = True,
        **options: object,
    ) -> AdaptationResult:
        """Synchronous mirror of :func:`repro.compile` over HTTP.

        ``timeout`` bounds the client-side wait for the result;
        ``deadline`` is the server-side compile budget (and implies a
        result wait of ``2 * deadline + 30`` seconds when ``timeout`` is
        not given — room for the degradation ladder's grace rungs).
        """
        job = self.submit(circuit, target, technique,
                          use_cache=use_cache, deadline=deadline,
                          on_deadline=on_deadline, fallback=fallback,
                          **options)
        if timeout is None and deadline is not None:
            timeout = 2.0 * deadline + 30.0
        return job.result(timeout=timeout)

    def compile_portfolio(
        self,
        circuit: Union[QuantumCircuit, str, dict],
        target=None,
        techniques: Optional[Sequence[str]] = None,
        *,
        policy: str = "combined",
        timeout: Optional[float] = None,
        use_cache: bool = True,
        **options: object,
    ) -> AdaptationResult:
        """Mirror of ``CompilationService.compile_portfolio`` over HTTP."""
        from repro.service.portfolio import DEFAULT_PORTFOLIO

        job = self.submit(
            circuit, target,
            portfolio=list(techniques or DEFAULT_PORTFOLIO),
            policy=policy, use_cache=use_cache, **options,
        )
        return job.result(timeout=timeout)

    def submit_batch(self, manifest) -> List[RemoteJob]:
        """POST a workload manifest; returns one handle per workload.

        Raises :class:`BadRequestError` when any workload was rejected —
        the error's ``payload`` still carries the accepted ``jobs`` stubs
        (they are already running server-side) next to the ``errors``
        list, so a caller that wants partial results can recover them.
        """
        payload = self._request("POST", "/v1/batch", manifest)
        if payload.get("errors"):
            rejected = ", ".join(
                f"{e.get('name')}: {e.get('error')}" for e in payload["errors"])
            raise BadRequestError(
                f"{len(payload['errors'])} workload(s) were rejected "
                f"({rejected}); {len(payload['jobs'])} accepted jobs are "
                "in the error payload", status=400, payload=payload)
        return [RemoteJob(self, stub) for stub in payload["jobs"]]

    def compile_suite(self, benchmark: str, technique: str = "sat_p",
                      *, target=None, timeout: Optional[float] = None,
                      use_cache: bool = True,
                      deadline: Optional[float] = None,
                      on_deadline: Optional[str] = None,
                      fallback: Union[None, bool, str, Sequence[str]] = None,
                      **options: object) -> AdaptationResult:
        """Compile one bundled suite benchmark server-side.

        ``deadline``/``on_deadline``/``fallback`` carry the same
        server-side budget semantics as :meth:`submit`.
        """
        payload: Dict[str, object] = {"technique": technique,
                                      "target": self._target_payload(target),
                                      "use_cache": use_cache}
        if deadline is not None:
            payload["timeout"] = float(deadline)
        if on_deadline is not None:
            payload["on_deadline"] = on_deadline
        if fallback is not None:
            payload["fallback"] = (list(fallback)
                                   if isinstance(fallback, (list, tuple))
                                   else fallback)
        if options:
            payload["options"] = dict(options)
        stub = self._request(
            "POST", f"/v1/suite/{quote(benchmark, safe='')}/compile", payload)
        return RemoteJob(self, stub).result(timeout=timeout)

    def suite(self) -> List[Dict[str, object]]:
        """The server's bundled-benchmark index."""
        return list(self._request("GET", "/v1/suite")["benchmarks"])

    def validate_circuit(
        self, circuit: Union[QuantumCircuit, str, dict]
    ) -> Dict[str, object]:
        """Round-trip a circuit through the server's wire decoder."""
        return self._request("POST", "/v1/circuits/validate",
                             {"circuit": self._circuit_payload(circuit)})

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def wait_until_ready(self, timeout: float = 30.0,
                         poll_interval: float = 0.1) -> Dict[str, object]:
        """Poll ``/healthz`` until the server answers (e.g. after boot)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServerError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_interval)

    def __repr__(self) -> str:
        return f"ReproClient(base_url={self.base_url!r})"
