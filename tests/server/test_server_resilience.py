"""Gateway/client/router resilience: deadline plumbing over the wire,
Retry-After backpressure, client retry caps, and shard crash recovery."""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro
from repro.api import clear_compilation_cache
from repro.server import (
    BadRequestError,
    CompilationFailedError,
    ReproClient,
    ServerSaturatedError,
    ShardRouter,
    build_server,
)
from repro.server.app import DEADLINE_HEADER
from repro.workloads import ghz_circuit, qft_circuit


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compilation_cache()
    yield
    clear_compilation_cache()


@pytest.fixture(scope="module")
def server():
    server = build_server(workers=2).start_background()
    yield server
    server.stop(drain=False)


@pytest.fixture(scope="module")
def client(server):
    return ReproClient(server.url, timeout=120.0)


def wire_circuit(variant=0):
    circuit = repro.QuantumCircuit(2, name=f"res_wire_{variant}")
    circuit.h(0)
    circuit.cx(0, 1)
    for _ in range(variant):
        circuit.rz(0.25, 0)
    return circuit


class TestDeadlinePlumbing:
    def test_deadline_in_the_body_degrades_over_the_wire(self, client):
        result = client.compile(wire_circuit(), technique="sat_p",
                                use_cache=False, deadline=0.0,
                                on_deadline="degrade", fallback="direct",
                                timeout=120)
        assert result.technique == "direct"
        assert result.report.degraded_from == "sat_p"
        events = result.report.deadline_events
        assert events and events[0]["reason"] == "deadline"

    def test_deadline_in_the_body_fails_the_job_typed(self, client):
        job = client.submit(wire_circuit(1), technique="sat_p",
                            use_cache=False, deadline=0.0)
        with pytest.raises(CompilationFailedError, match="Deadline"):
            job.result(timeout=120)

    def test_deadline_header_applies_when_the_body_has_none(self, server,
                                                            client):
        payload = {
            "circuit": wire_circuit(2).to_dict(),
            "technique": "sat_p",
            "use_cache": False,
            "on_deadline": "degrade",
            "fallback": "direct",
        }
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json",
                     DEADLINE_HEADER: "0.0"},
            method="POST")
        with urllib.request.urlopen(request, timeout=60) as response:
            job_id = json.loads(response.read())["job_id"]
        result = client.result(job_id, timeout=120)
        assert result.report.degraded_from == "sat_p"

    def test_body_timeout_wins_over_the_header(self, server, client):
        payload = {
            "circuit": wire_circuit(3).to_dict(),
            "technique": "direct",
            "use_cache": False,
            "timeout": 300.0,
        }
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json",
                     DEADLINE_HEADER: "0.0"},
            method="POST")
        with urllib.request.urlopen(request, timeout=60) as response:
            job_id = json.loads(response.read())["job_id"]
        result = client.result(job_id, timeout=120)
        assert result.technique == "direct"
        assert result.report.degraded_from is None

    def test_invalid_deadline_settings_are_rejected(self, client):
        with pytest.raises(BadRequestError):
            client.submit(wire_circuit(), technique="direct",
                          deadline=-1.0)
        with pytest.raises(BadRequestError):
            client.submit(wire_circuit(), technique="direct",
                          deadline=5.0, on_deadline="panic")

    def test_portfolio_with_a_deadline_is_rejected(self, client):
        with pytest.raises(BadRequestError, match="portfolio"):
            client.submit(wire_circuit(), portfolio=["direct", "sat_r"],
                          deadline=5.0)


class TestRetryAfterEmission:
    def test_saturated_gateway_answers_503_with_retry_after(self):
        server = build_server(workers=1, max_pending=1).start_background()
        try:
            client = ReproClient(server.url, timeout=60.0, retries=0)
            # Pin the single worker on a long (self-expiring) solve, then
            # fill the one queue slot.
            running = client.submit(qft_circuit(4), technique="sat_p",
                                    use_cache=False, deadline=30.0)
            # The queue slot frees only once the worker has dequeued the
            # pinned job; submitting earlier races the max_pending=1 bound.
            dequeued_by = time.monotonic() + 60.0
            while (running.status() != "running"
                   and time.monotonic() < dequeued_by):
                time.sleep(0.01)
            queued = client.submit(wire_circuit(), technique="direct",
                                   use_cache=False)
            saturated = None
            for variant in range(1, 30):
                payload = {"circuit": wire_circuit(variant).to_dict(),
                           "technique": "direct", "use_cache": False}
                request = urllib.request.Request(
                    server.url + "/v1/jobs",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    urllib.request.urlopen(request, timeout=60).read()
                except urllib.error.HTTPError as error:
                    saturated = error
                    break
            assert saturated is not None, "gateway never saturated"
            assert saturated.code == 503
            assert saturated.headers["Retry-After"] == "1"
            body = json.loads(saturated.read())
            assert body["retry_after"] == 1.0
            assert body["retry"] is True
            # Unwedge: cancel the pinned solve; the queued job completes.
            client.cancel(running.job_id)
            assert queued.result(timeout=120).technique == "direct"
        finally:
            server.stop(drain=False)


class _Always503(BaseHTTPRequestHandler):
    """A server that is permanently busy, with a configurable hint."""

    retry_after = "1"

    def _answer(self):
        body = json.dumps({"error": "busy", "retry": True}).encode()
        self.send_response(503)
        self.send_header("Retry-After", self.retry_after)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _answer
    do_POST = _answer

    def log_message(self, *args):  # noqa: D102 - silence test output
        pass


@pytest.fixture
def busy_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Always503)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestClientRetryDiscipline:
    def test_retry_after_overrides_the_backoff(self, busy_server):
        """With a 10s backoff but a 0s Retry-After hint, the retries run
        immediately — the server's horizon wins."""
        _Always503.retry_after = "0"
        client = ReproClient(busy_server, timeout=10.0, retries=2,
                             backoff=10.0, max_retry_seconds=60.0)
        started = time.monotonic()
        with pytest.raises(ServerSaturatedError):
            client.healthz()
        assert time.monotonic() - started < 5.0

    def test_max_retry_seconds_caps_the_total_wall_clock(self, busy_server):
        _Always503.retry_after = "1"
        client = ReproClient(busy_server, timeout=10.0, retries=10,
                             backoff=0.1, max_retry_seconds=1.5)
        started = time.monotonic()
        with pytest.raises(ServerSaturatedError):
            client.healthz()
        elapsed = time.monotonic() - started
        assert 0.5 <= elapsed < 5.0, elapsed


class TestShardRecovery:
    def test_generation_ids_route_back_to_their_shard(self):
        router = ShardRouter(shards=4, workers=1)
        assert router.shard_for_job("s2-j17") == 2
        assert router.shard_for_job("s2g3-j17") == 2
        assert router.shard_for_job("s0g1-j1") == 0
        assert router.shard_for_job("s9-j1") is None
        assert router.shard_for_job("s9g2-j1") is None
        assert router.shard_for_job("sXg1-j1") is None

    def test_killed_shard_respawns_and_mints_generation_ids(self, tmp_path):
        router = ShardRouter(shards=2, workers=1,
                             store=str(tmp_path)).start()
        try:
            client = ReproClient(router.url, timeout=120.0, retries=5,
                                 backoff=0.2, max_retry_seconds=30.0)
            os.kill(router._processes[0].pid, signal.SIGKILL)
            # Traffic keeps flowing while shard 0 is down (failover).
            for variant in range(4):
                result = client.compile(wire_circuit(variant),
                                        technique="direct", use_cache=False,
                                        timeout=120)
                assert result.technique == "direct"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if (router.respawns().get(0, 0) >= 1
                        and len(router.live_shards()) == 2):
                    break
                time.sleep(0.2)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["live"] == 2
            assert health["respawns"]["s0"] >= 1
            # The respawned shard mints generation-tagged ids that route
            # back to it for result lookups.
            generation_job = None
            for variant in range(10, 30):
                job = client.submit(wire_circuit(variant),
                                    technique="direct", use_cache=False)
                if job.job_id.startswith("s0g"):
                    generation_job = job
                    break
            assert generation_job is not None, "no job landed on s0g*"
            assert generation_job.result(timeout=120).technique == "direct"
        finally:
            router.shutdown()
