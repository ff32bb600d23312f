"""Sharded serving end-to-end: a real authenticated 2-shard deployment.

One process fixture (shards are not free) exercises the whole cluster
surface: API-key auth at the router edge, long-poll results relayed
through it, cross-shard L2 hits through the shared store directory,
rate-limit and quota rejections with ``Retry-After``, and the client
honoring it.
"""

import json
import time

import pytest

import repro
from repro.api import clear_compilation_cache
from repro.server import (
    AuthenticationError,
    PermissionDeniedError,
    RateLimitedError,
    ReproClient,
    ShardRouter,
)

KEYS = {"keys": [
    {"key": "sk-prod", "name": "prod", "priority": 9,
     "rate": 1000, "burst": 1000},
    {"key": "sk-throttled", "name": "throttled", "priority": 3,
     "rate": 1.0, "burst": 1},
    {"key": "sk-metered", "name": "metered", "priority": 5,
     "rate": 1000, "burst": 1000, "daily_quota": 3},
    {"key": "sk-old", "name": "old", "expires": "2020-01-01"},
]}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("cluster-store"))
    # Shards fork from this process: clear the global L1 first, or
    # circuits earlier tests compiled (the fingerprint ignores names)
    # get served from inherited memory and never touch the store.
    clear_compilation_cache()
    with ShardRouter(shards=2, workers=2, store=store,
                     auth=json.dumps(KEYS)) as router:
        yield router, ReproClient(router.url, timeout=120.0,
                                  api_key="sk-prod")


def _circuit(name):
    circuit = repro.QuantumCircuit(3, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return circuit


class TestAuthAtTheEdge:
    def test_unauthenticated_submission_is_401(self, cluster):
        router, _ = cluster
        anonymous = ReproClient(router.url, retries=0, api_key="")
        with pytest.raises(AuthenticationError) as excinfo:
            anonymous.submit(_circuit("anon"), technique="direct")
        assert excinfo.value.status == 401

    def test_unknown_key_is_401(self, cluster):
        router, _ = cluster
        wrong = ReproClient(router.url, retries=0, api_key="sk-nope")
        with pytest.raises(AuthenticationError):
            wrong.submit(_circuit("wrong"), technique="direct")

    def test_expired_key_is_403(self, cluster):
        router, _ = cluster
        stale = ReproClient(router.url, retries=0, api_key="sk-old")
        with pytest.raises(PermissionDeniedError) as excinfo:
            stale.submit(_circuit("stale"), technique="direct")
        assert excinfo.value.status == 403

    def test_health_and_metrics_stay_open(self, cluster):
        router, _ = cluster
        anonymous = ReproClient(router.url, retries=0, api_key="")
        assert anonymous.healthz()["status"] in ("ok", "degraded")
        assert "shards" in anonymous.metrics()

    def test_result_requires_a_key(self, cluster):
        router, _ = cluster
        anonymous = ReproClient(router.url, retries=0, api_key="")
        with pytest.raises(AuthenticationError):
            anonymous.result("s0-j1", timeout=1)


class TestAuthenticatedServing:
    def test_router_compile_long_polls(self, cluster):
        _, client = cluster
        job = client.submit(_circuit("longpoll"), technique="direct")
        assert job.job_id.startswith(("s0-", "s1-"))
        result = job.result(timeout=120)
        assert result.cost.gate_count > 0
        assert job.status() == "done"

    def test_finished_job_result_is_immediate(self, cluster):
        _, client = cluster
        job = client.submit(_circuit("longpoll"), technique="direct")
        first = job.result(timeout=120)
        started = time.monotonic()
        assert job.result(timeout=60).cost == first.cost
        assert time.monotonic() - started < 30


class TestRateLimits:
    def test_throttled_key_gets_429_with_retry_after(self, cluster):
        router, _ = cluster
        throttled = ReproClient(router.url, retries=0,
                                api_key="sk-throttled")
        statuses = set()
        for i in range(3):
            try:
                throttled.job_status(f"s0-j{i}")
                statuses.add(200)
            except RateLimitedError as error:
                statuses.add(error.status)
                assert error.payload.get("retry_after", 0) > 0
            except Exception:
                statuses.add(404)  # Unknown job: the request was admitted.
        assert 429 in statuses

    def test_client_honors_retry_after_and_recovers(self, cluster):
        # burst 1 at 1 req/s: the second request is throttled with a
        # sub-second Retry-After; a retrying client sleeps and succeeds.
        router, _ = cluster
        patient = ReproClient(router.url, retries=3, api_key="sk-throttled")
        time.sleep(1.2)  # Refill the bucket from earlier tests.
        patient.healthz()  # Open route: no charge, warms the connection.
        started = time.monotonic()
        first = patient.submit(_circuit("patient-a"), technique="direct")
        second = patient.submit(_circuit("patient-b"), technique="direct")
        elapsed = time.monotonic() - started
        # The second submit had to wait for the bucket (~1 s at 1 req/s).
        assert elapsed >= 0.5
        for job in (first, second):
            assert job.result(timeout=120).cost.gate_count > 0

    def test_quota_exhausts_mid_batch(self, cluster):
        router, _ = cluster
        metered = ReproClient(router.url, retries=0, api_key="sk-metered")
        admitted, refused = 0, 0
        for i in range(5):
            try:
                metered.job_status(f"s0-missing-{i}")
                admitted += 1
            except RateLimitedError as error:
                refused += 1
                # Quota refusals point at the UTC midnight rollover.
                assert error.payload.get("retry_after", 0) > 0
            except Exception:
                admitted += 1  # 404 == admitted, just unknown.
        assert admitted == 3
        assert refused == 2


class TestCrossShardStore:
    def test_shared_store_serves_other_shards(self, cluster):
        router, _ = cluster
        # Submitting one circuit *directly* to each shard: shard 1 never
        # compiled it, so its L1 misses and the shared directory serves
        # the entry shard 0 wrote.
        shard_clients = [
            ReproClient(router.shard_url(i), timeout=120.0, api_key="sk-prod")
            for i in (0, 1)
        ]
        circuit = _circuit("xshard")
        circuit.h(2)  # A circuit no other test compiled.

        def l2_hits():
            return shard_clients[1].metrics()["service"]["l2"]["hits"]

        before = l2_hits()
        first = shard_clients[0].compile(circuit, technique="direct")
        second = shard_clients[1].compile(circuit, technique="direct")
        assert first.cost == second.cost
        assert l2_hits() > before

    def test_store_statistics_aggregate_per_backend(self, cluster):
        _, client = cluster
        local_dir = client.metrics()["stores"]["local_dir"]
        assert local_dir["shards"] == 2
        assert local_dir["puts"] >= 1
