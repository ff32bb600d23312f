"""``repro.telemetry``: unified metrics for the whole serving stack.

One process-wide :class:`MetricRegistry` (:data:`REGISTRY`) is the sink
every surface feeds — gateway request latency, pipeline pass timing,
scheduler saturation, L1/L2 cache traffic, store bytes, live SAT/SMT/OMT
solver rates, and process resources.  Instrumented code reaches it
through the :func:`repro.trace.span` / :func:`repro.trace.event` hooks
(routed by :data:`repro.telemetry.instruments.SINKS`) and scrape-time
collectors.  Like ``repro.trace`` and ``repro.resilience``, the registry
is *off* until something enables it (the HTTP gateway does on
construction); a disabled hook costs one module-global flag read.

Counters and histograms additionally aggregate into a sliding window
(ring of 15 s time buckets spanning 15 minutes), so rates and
p50/p95/p99 are available over the last 1/5/15 minutes rather than the
process lifetime.

Rendering: :func:`render_prometheus` emits the Prometheus text format
(served by the gateway at ``GET /metrics?format=prometheus``), and
:func:`parse_prometheus` / :func:`validate_prometheus` are the minimal
in-repo scraper used by tests, CI, and the shard router's merge.

``python -m repro.telemetry`` is a top-style console dashboard polling
a live server's ``/metrics``.
"""

from __future__ import annotations

from repro.telemetry.prometheus import (
    merge_prometheus,
    parse_prometheus,
    render_prometheus,
    validate_prometheus,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    WINDOWS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    REGISTRY,
    disable_telemetry,
    enable_telemetry,
    telemetry_enabled,
)
from repro.telemetry.resources import (
    ResourceSampler,
    resource_usage,
    start_resource_sampler,
    stop_resource_sampler,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "REGISTRY",
    "ResourceSampler",
    "WINDOWS",
    "disable_telemetry",
    "enable_telemetry",
    "merge_prometheus",
    "parse_prometheus",
    "render_prometheus",
    "resource_usage",
    "start_resource_sampler",
    "stop_resource_sampler",
    "telemetry_enabled",
    "validate_prometheus",
]
