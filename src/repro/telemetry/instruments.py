"""The stack's named metric families and the hooks that feed them.

Everything the serving stack measures registers here, once, at import.
Instrumented code never touches these families on its hot path: it calls
the :func:`repro.trace.span` / :func:`repro.trace.event` hooks, and
while telemetry is enabled every finished span and every point event
reaches :func:`observe`.  :data:`SINKS` is the one table that says which
hook feeds which family; hooks it does not name only reach the tracer.

Family naming follows Prometheus conventions: ``repro_`` prefix, base
units (seconds, bytes), ``_total`` suffix on counters.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.telemetry.registry import REGISTRY, _quantile_from_buckets
from repro.trace.tracer import MetricSink

__all__ = [
    "SINKS",
    "observe",
    "passes_snapshot",
    "requests_snapshot",
    "snapshot_histogram_family",
]

# -- HTTP gateway ----------------------------------------------------------

HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route.",
    ("route",),
)
HTTP_ERRORS = REGISTRY.counter(
    "repro_http_request_errors_total",
    "HTTP error responses, by route and kind (client 4xx / server 5xx).",
    ("route", "kind"),
)
HTTP_LATENCY = REGISTRY.histogram(
    "repro_http_request_duration_seconds",
    "Wall-clock request latency, by route.",
    ("route",),
)

# -- pipeline --------------------------------------------------------------

PASS_LATENCY = REGISTRY.histogram(
    "repro_pass_duration_seconds",
    "Compilation pass latency, by pass name.",
    ("pass",),
)

COMPILE_LATENCY = REGISTRY.histogram(
    "repro_compile_duration_seconds",
    "End-to-end compile latency, by technique.",
    ("technique",),
    buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
             15.0, 60.0),
)

# -- scheduler / service ---------------------------------------------------

QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Jobs waiting in the scheduler queue (live, updated on transitions).",
)
WORKERS_BUSY = REGISTRY.gauge(
    "repro_scheduler_workers_busy",
    "Worker threads currently running a job (live, updated on transitions).",
)
JOBS_PENDING = REGISTRY.gauge(
    "repro_scheduler_jobs_pending",
    "Jobs admitted but not finished: queued plus running.",
)
SCHEDULER_JOBS = REGISTRY.counter(
    "repro_scheduler_jobs_total",
    "Job lifecycle outcomes, by state.",
    ("state",),
)
WORKER_UTILIZATION = REGISTRY.gauge(
    "repro_scheduler_worker_utilization",
    "Fraction of worker-seconds spent running jobs since service start.",
)

# -- caches / store --------------------------------------------------------

CACHE_REQUESTS = REGISTRY.counter(
    "repro_cache_requests_total",
    "Result-cache lookups, by tier (l1 memory / l2 store) and outcome.",
    ("tier", "outcome"),
)
STORE_BYTES = REGISTRY.gauge(
    "repro_store_bytes",
    "Bytes currently held by the persistent result store, by backend.",
    ("backend",),
)
STORE_EVENTS = REGISTRY.counter(
    "repro_store_events_total",
    "Persistent-store lifecycle events, by backend (puts, evictions, "
    "corruptions).",
    ("backend", "event"),
)

# -- cluster: auth / admission ---------------------------------------------

AUTH_REQUESTS = REGISTRY.counter(
    "repro_auth_requests_total",
    "Authentication decisions, by key name and outcome "
    "(ok, missing, invalid, expired, throttled, quota).",
    ("key", "outcome"),
)
SHED_REQUESTS = REGISTRY.counter(
    "repro_shed_requests_total",
    "Submissions refused by the load shedder, by key name.",
    ("key",),
)
LONGPOLL_ACTIVE = REGISTRY.gauge(
    "repro_longpoll_active",
    "Long-poll result waits currently holding a handler thread.",
)

# -- solvers ---------------------------------------------------------------

SOLVER_EVENTS = REGISTRY.counter(
    "repro_solver_events_total",
    "SAT/SMT/OMT solver progress events flushed at checkpoint milestones.",
    ("event",),
)
SOLVER_LEARNED_CLAUSES = REGISTRY.gauge(
    "repro_solver_learned_clauses",
    "Learned-clause database size after the most recent SAT solve.",
)

# -- process resources -----------------------------------------------------

PROCESS_RSS = REGISTRY.gauge(
    "repro_process_resident_memory_bytes",
    "Resident set size of this process.",
)
PROCESS_CPU = REGISTRY.counter(
    "repro_process_cpu_seconds_total",
    "User plus system CPU time consumed by this process.",
)
PROCESS_GC = REGISTRY.counter(
    "repro_process_gc_collections_total",
    "Python garbage collections, by generation.",
    ("generation",),
)
PROCESS_FDS = REGISTRY.gauge(
    "repro_process_open_fds",
    "Open file descriptors held by this process.",
)

# -- server ----------------------------------------------------------------

SERVER_UPTIME = REGISTRY.gauge(
    "repro_server_uptime_seconds",
    "Seconds since the gateway started.",
)
SERVER_JOBS_TRACKED = REGISTRY.gauge(
    "repro_server_jobs_tracked",
    "Job handles the gateway currently retains.",
)


# -- hook sinks ------------------------------------------------------------

def _http_request(_name: str, fields: Mapping, seconds: Optional[float]) -> None:
    status, route = fields["status"], fields["route"]
    if not status:  # the client went away or a fault aborted the answer
        return
    HTTP_REQUESTS.labels(route).inc()
    if status >= 400:
        HTTP_ERRORS.labels(route, "server" if status >= 500 else "client").inc()
    HTTP_LATENCY.labels(route).observe(seconds)


def _pass(name: str, fields: Mapping, seconds: Optional[float]) -> None:
    if "error" not in fields:  # the pass ran to completion
        PASS_LATENCY.labels(name[len("pass:"):]).observe(seconds)


def _compile(_name: str, fields: Mapping, seconds: Optional[float]) -> None:
    if fields["gates_out"] is not None:  # the pipeline produced a circuit
        COMPILE_LATENCY.labels(fields["technique"]).observe(seconds)


def _solver_events(**deltas: int) -> None:
    for event, amount in deltas.items():
        if amount:
            SOLVER_EVENTS.labels(event).inc(amount)


def _sat_progress(_name: str, fields: Mapping, _seconds: Optional[float]) -> None:
    _solver_events(conflicts=fields["d_conflicts"],
                   propagations=fields["d_propagations"],
                   decisions=fields["d_decisions"],
                   restarts=fields["d_restarts"])
    SOLVER_LEARNED_CLAUSES.set(fields["learned"])


#: ``cache.*`` events name the tier by its storage ``level``.
_CACHE_TIERS = {"memory": "l1", "persistent": "l2"}

#: Hook name -> the registry update it drives.  Spans arrive with their
#: duration in seconds, point events with ``None``.  A key ending in
#: ``:`` matches every hook with that prefix (``pass:route``, ...).
SINKS: Dict[str, MetricSink] = {
    "http.request": _http_request,
    "pass:": _pass,
    "pipeline": _compile,
    "cache.hit": lambda _n, fields, _s: CACHE_REQUESTS.labels(
        _CACHE_TIERS[fields["level"]], "hit").inc(),
    "cache.miss": lambda _n, fields, _s: CACHE_REQUESTS.labels(
        _CACHE_TIERS[fields["level"]], "miss").inc(),
    "sat.conflicts": _sat_progress,
    "smt.theory": lambda _n, fields, _s: _solver_events(
        theory_checks=fields["d_checks"], theory_pivots=fields["d_pivots"],
        theory_conflicts=fields["d_conflicts"]),
    "omt.optimize": lambda _n, fields, _s: _solver_events(
        omt_rounds=fields["d_rounds"]),
    "auth.decision": lambda _n, fields, _s: AUTH_REQUESTS.labels(
        fields["key"], fields["outcome"]).inc(),
    "admission.shed": lambda _n, fields, _s: SHED_REQUESTS.labels(
        fields["key"]).inc(),
}


def observe(name: str, fields: Mapping[str, object],
            seconds: Optional[float]) -> None:
    """The metric sink: route one finished span or point event."""
    head, colon, _rest = name.partition(":")
    sink = SINKS.get(head + colon)
    if sink is not None:
        sink(name, fields, seconds)


# -- JSON views (the gateway's /metrics document) --------------------------

def _bucket_label(bound_seconds: float) -> str:
    millis = 1e3 * bound_seconds
    return f"le_{int(millis)}ms" if millis == int(millis) else f"le_{millis}ms"


def snapshot_histogram_family(family, label_name: str) -> Dict[str, Dict[str, object]]:
    """JSON block for one labelled histogram family, keyed by label value.

    Lifetime ``count``/``total_seconds``/``mean_ms``/``p50_ms``/``p95_ms``
    plus a *non-cumulative* ``histogram_ms`` and a ``windows`` sub-dict
    of 1/5/15-minute percentiles from the registry's sliding ring.
    """
    snapshot: Dict[str, Dict[str, object]] = {}
    for sample in family.snapshot()["samples"]:
        count = sample["count"]
        total = sample["sum"]
        bounds = [bound for bound, _running in sample["buckets"]]
        # Buckets arrive cumulative; the JSON block is non-cumulative,
        # with the +Inf overflow last.
        running = [running for _bound, running in sample["buckets"]] + [count]
        flat = [after - before for before, after in zip([0] + running, running)]
        histogram = {_bucket_label(bound): n for bound, n in zip(bounds, flat)}
        histogram["le_inf"] = flat[-1]
        snapshot[sample["labels"].get(label_name, "")] = {
            "count": count,
            "total_seconds": total,
            "mean_ms": 1e3 * total / count if count else 0.0,
            "p50_ms": 1e3 * _quantile_from_buckets(bounds, flat, count, 0.50),
            "p95_ms": 1e3 * _quantile_from_buckets(bounds, flat, count, 0.95),
            "histogram_ms": histogram,
            "windows": {
                window: {
                    "count": stats["count"],
                    "p50_ms": 1e3 * stats["p50"],
                    "p95_ms": 1e3 * stats["p95"],
                    "p99_ms": 1e3 * stats["p99"],
                }
                for window, stats in sample["windows"].items()
            },
        }
    return snapshot


def passes_snapshot() -> Dict[str, Dict[str, object]]:
    """``/metrics`` ``passes`` block: latency per pipeline pass."""
    return snapshot_histogram_family(PASS_LATENCY, "pass")


def requests_snapshot() -> Dict[str, Dict[str, object]]:
    """``/metrics`` ``requests`` block: latency and errors per route.

    The percentile keys say what they measure: ``_lifetime``
    interpolation vs the ``windows`` sub-dict's 1m/5m/15m rings.
    """
    errors: Dict[Tuple[str, str], int] = {}
    for sample in HTTP_ERRORS.snapshot()["samples"]:
        labels = sample["labels"]
        errors[(labels["route"], labels["kind"])] = int(sample["value"])
    snapshot: Dict[str, Dict[str, object]] = {}
    for route, block in snapshot_histogram_family(HTTP_LATENCY, "route").items():
        block["p50_ms_lifetime"] = block.pop("p50_ms")
        block["p95_ms_lifetime"] = block.pop("p95_ms")
        block["server_errors"] = errors.get((route, "server"), 0)
        block["client_errors"] = errors.get((route, "client"), 0)
        snapshot[route] = block
    return snapshot
