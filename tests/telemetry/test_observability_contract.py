"""The observable surface of a serving run: metric families, JSON keys, spans.

One ``build_server(workers=1)`` process serves a ``sat_p`` compile and an
identical repeat (answered from the L1 cache).  The Prometheus scrape's
(family, label names, label values) set, the key sets of the JSON
``/metrics`` ``requests`` and ``passes`` blocks, and the span names of
the trace of that traffic are pinned exactly: refactoring how the stack
is instrumented must not change what it exposes.

The run happens in a fresh interpreter, so the process-wide metric
registry holds only this traffic whatever ran before in the test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import json, sys, time, urllib.request

from repro.server import ReproClient, build_server
from repro.telemetry.instruments import HTTP_REQUESTS
from repro.telemetry.prometheus import parse_prometheus
from repro.trace import load_events, stop_tracing

QASM = ('OPENQASM 2.0; include "qelib1.inc"; '
        'qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];')


def settle():
    # A request is counted after its response is written; wait until the
    # handler threads of earlier requests have booked theirs.
    last, stable = None, 0
    deadline = time.monotonic() + 10.0
    while stable < 3 and time.monotonic() < deadline:
        total = sum(child.value for _key, child in HTTP_REQUESTS.samples())
        stable = stable + 1 if total == last else 0
        last = total
        time.sleep(0.05)


server = build_server(workers=1, trace=sys.argv[1]).start_background()
try:
    client = ReproClient(server.url, timeout=120.0)
    for _ in range(2):  # the repeat is served from the L1 cache
        client.compile(QASM, technique="sat_p", timeout=300)
    settle()
    document = client.metrics()
    settle()
    with urllib.request.urlopen(
            server.url + "/metrics?format=prometheus", timeout=60) as reply:
        text = reply.read().decode("utf-8")
finally:
    server.stop(drain=True)
    stop_tracing()

labels = set()
for name, family in parse_prometheus(text).items():
    for _sample, sample_labels, _value in family.samples:
        sample_labels = {k: v for k, v in sample_labels.items() if k != "le"}
        labels.add((name, tuple(sorted(sample_labels)),
                    tuple(v for _k, v in sorted(sample_labels.items()))))

events = load_events(sys.argv[1])
print(json.dumps({
    "labels": sorted(labels),
    "requests": {route: sorted(block) for route, block
                 in document["requests"].items()},
    "passes": {name: sorted(block) for name, block
               in document["passes"].items()},
    "spans": sorted({e["name"] for e in events if e["kind"] == "begin"}),
    "points": sorted({e["name"] for e in events if e["kind"] == "point"}),
}))
"""

PASSES = ("route", "preprocess", "evaluate_rules", "solve", "apply",
          "merge_1q", "verify", "analyze_cost")

ROUTES = ("POST /v1/jobs", "GET /v1/jobs/{id}/result", "GET /metrics")

HISTOGRAM_KEYS = ["count", "histogram_ms", "mean_ms", "p50_ms", "p95_ms",
                  "total_seconds", "windows"]

ROUTE_KEYS = sorted(
    [key for key in HISTOGRAM_KEYS if key not in ("p50_ms", "p95_ms")]
    + ["p50_ms_lifetime", "p95_ms_lifetime", "server_errors",
       "client_errors"])


def _labels(family, names=(), *value_rows):
    rows = value_rows or ((),)
    return {(family, tuple(names), tuple(values)) for values in rows}


EXPECTED_LABELS = set().union(
    _labels("repro_cache_requests_total", ("outcome", "tier"),
            ("hit", "l1"), ("miss", "l1")),
    _labels("repro_compile_duration_seconds", ("technique",), ("sat_p",)),
    _labels("repro_http_request_duration_seconds", ("route",),
            *((route,) for route in ROUTES)),
    _labels("repro_http_requests_total", ("route",),
            *((route,) for route in ROUTES)),
    _labels("repro_longpoll_active"),
    _labels("repro_pass_duration_seconds", ("pass",),
            *((name,) for name in PASSES)),
    _labels("repro_process_cpu_seconds_total"),
    _labels("repro_process_gc_collections_total", ("generation",),
            ("0",), ("1",), ("2",)),
    _labels("repro_process_open_fds"),
    _labels("repro_process_resident_memory_bytes"),
    _labels("repro_scheduler_jobs_pending"),
    _labels("repro_scheduler_jobs_total", ("state",),
            *((state,) for state in ("cancelled", "completed", "deduplicated",
                                     "degraded", "failed", "submitted",
                                     "worker_crashes"))),
    _labels("repro_scheduler_queue_depth"),
    _labels("repro_scheduler_worker_utilization"),
    _labels("repro_scheduler_workers_busy"),
    _labels("repro_server_jobs_tracked"),
    _labels("repro_server_uptime_seconds"),
    _labels("repro_solver_events_total", ("event",),
            ("conflicts",), ("decisions",), ("omt_rounds",),
            ("propagations",), ("theory_checks",), ("theory_conflicts",),
            ("theory_pivots",)),
    _labels("repro_solver_learned_clauses"),
)

#: Every span of the traffic, by name.
EXPECTED_SPANS = {"client.request", "http.request", "job", "compile",
                  "pipeline", "omt.optimize",
                  *(f"pass:{name}" for name in PASSES)}

#: Point events the traffic always produced.
EXPECTED_POINTS = {"job.submit", "cache.hit", "omt.round", "smt.check"}

#: Point events the single-hook instrumentation added; each is named in
#: CHANGES.md.  They may appear, nothing else may.
ADDED_POINTS = {"cache.miss", "sat.conflicts", "smt.theory"}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    trace = tmp_path_factory.mktemp("contract") / "trace.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["REPRO_MAX_IMPROVEMENT_ROUNDS"] = "150"
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_API_KEYS", None)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(trace)], env=env,
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_prometheus_families_labels_and_label_values(observed):
    seen = {(family, tuple(names), tuple(values))
            for family, names, values in observed["labels"]}
    assert seen == EXPECTED_LABELS, (
        f"unexpected: {sorted(seen - EXPECTED_LABELS)}; "
        f"missing: {sorted(EXPECTED_LABELS - seen)}")


def test_json_requests_block_keys(observed):
    assert set(observed["requests"]) == set(ROUTES[:2])
    for route, keys in observed["requests"].items():
        assert keys == ROUTE_KEYS, route


def test_json_passes_block_keys(observed):
    assert set(observed["passes"]) == set(PASSES)
    for name, keys in observed["passes"].items():
        assert keys == HISTOGRAM_KEYS, name


def test_trace_span_and_point_event_names(observed):
    assert set(observed["spans"]) == EXPECTED_SPANS
    points = set(observed["points"])
    assert EXPECTED_POINTS <= points
    assert points <= EXPECTED_POINTS | ADDED_POINTS, (
        points - EXPECTED_POINTS - ADDED_POINTS)
