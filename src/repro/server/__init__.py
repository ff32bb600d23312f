"""The networked compilation gateway: HTTP API, client, sharding.

Serve the compilation stack over plain HTTP (standard library only)::

    python -m repro.server --port 8000 --workers 4 --store .repro-store

and talk to it from anywhere::

    from repro.server import ReproClient

    client = ReproClient("http://127.0.0.1:8000")
    result = client.compile(qasm_text, technique="sat_p")
    print(result.cost.gate_fidelity_product)

Pieces:

* :func:`build_server` / :class:`ReproServer` — a ``ThreadingHTTPServer``
  JSON REST API over :class:`repro.service.CompilationService` (jobs,
  batches, bundled-suite compiles, health and metrics);
* :class:`ReproClient` — a blocking ``urllib`` client mirroring the
  local ``compile``/``submit``/``compile_portfolio`` API with retries
  and typed :class:`ServerError` subclasses;
* :class:`ShardRouter` — N server processes behind a fingerprint-hash
  router sharing one ``dir:`` persistent result store;
* :mod:`repro.cluster` — the admission pieces the server composes:
  API-key auth with rate limits, and the load shedder;
* ``python -m repro.server`` — the serving CLI;
* ``benchmarks/perf/server_load.py`` — the load harness recording
  cold/warm requests-per-second and latency percentiles.
"""

from repro.server.app import (
    ApiError,
    CompilationGateway,
    ReproServer,
    build_server,
)
from repro.server.client import (
    AuthenticationError,
    BadRequestError,
    CompilationFailedError,
    JobCancelledError,
    JobNotFoundError,
    PermissionDeniedError,
    RateLimitedError,
    RemoteJob,
    ReproClient,
    ServerError,
    ServerSaturatedError,
    ServerUnavailableError,
)
from repro.server.sharding import ShardRouter

__all__ = [
    "build_server",
    "ReproServer",
    "CompilationGateway",
    "ApiError",
    "ReproClient",
    "RemoteJob",
    "ServerError",
    "BadRequestError",
    "AuthenticationError",
    "PermissionDeniedError",
    "RateLimitedError",
    "JobNotFoundError",
    "JobCancelledError",
    "CompilationFailedError",
    "ServerSaturatedError",
    "ServerUnavailableError",
    "ShardRouter",
]
