"""The multi-process shard router: routing rules and one real deployment."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.server import ReproClient, ShardRouter


class TestMetricsMerge:
    """Pure ``/metrics`` merging — no processes spawned."""

    @staticmethod
    def shard_document(hits, puts):
        return {"service": {
            "workers": 2,
            "l2": {"backend": "local_dir", "entries": 1, "total_bytes": 2392,
                   "hits": hits, "misses": 1, "puts": puts},
        }}

    def test_shared_store_footprint_is_counted_once(self):
        from repro.server.sharding import merge_shard_metrics

        totals, stores = merge_shard_metrics({
            "s0": self.shard_document(hits=0, puts=1),
            "s1": self.shard_document(hits=3, puts=0),
        })
        assert totals["workers"] == 4
        assert stores["local_dir"] == {
            "shards": 2, "entries": 1, "total_bytes": 2392,
            "hits": 3, "misses": 2, "puts": 1,
        }

    def test_unreachable_shards_are_skipped(self):
        from repro.server.sharding import merge_shard_metrics

        totals, stores = merge_shard_metrics({
            "s0": self.shard_document(hits=1, puts=1),
            "s1": {"error": "shard unreachable"},
        })
        assert stores["local_dir"]["shards"] == 1
        assert stores["local_dir"]["entries"] == 1


class TestRoutingRules:
    """Pure routing logic — no processes spawned."""

    @pytest.fixture()
    def router(self):
        router = ShardRouter(shards=4)
        router._shard_ports = {0: 1, 1: 2, 2: 3, 3: 4}  # Pretend-started.
        return router

    def test_identical_bodies_route_to_the_same_shard(self, router):
        body = b'{"circuit": "OPENQASM 2.0;", "technique": "sat_p"}'
        assert router.shard_for_body(body, "/v1/jobs") == \
            router.shard_for_body(body, "/v1/jobs")

    def test_key_order_does_not_change_the_shard(self, router):
        a = b'{"technique": "sat_p", "circuit": "OPENQASM 2.0;"}'
        b = b'{"circuit": "OPENQASM 2.0;", "technique": "sat_p"}'
        assert router.shard_for_body(a, "/v1/jobs") == \
            router.shard_for_body(b, "/v1/jobs")

    def test_bodies_spread_over_shards(self, router):
        shards = {
            router.shard_for_body(
                f'{{"circuit": "c{i}"}}'.encode(), "/v1/jobs")
            for i in range(64)
        }
        assert len(shards) > 1

    def test_job_ids_carry_their_shard(self, router):
        assert router.shard_for_job("s2-j17") == 2
        assert router.shard_for_job("s3-j1") == 3

    def test_malformed_job_ids_route_nowhere(self, router):
        assert router.shard_for_job("j17") is None
        assert router.shard_for_job("sX-j1") is None
        assert router.shard_for_job("s9-j1") is None  # No such shard.
        assert router.shard_for_job("s2") is None

    def test_router_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=0)

    def test_store_must_be_a_path(self):
        with pytest.raises(TypeError):
            ShardRouter(shards=2, store=object())


class TestShardedDeployment:
    """One real 2-process deployment (compact: processes are not free)."""

    @pytest.fixture(scope="class")
    def deployment(self, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("shard-store"))
        with ShardRouter(shards=2, workers=2, store=store) as router:
            yield router, ReproClient(router.url, timeout=120.0)

    def _circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(3, name="sharded")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        return circuit

    def test_compile_round_trip_and_sticky_routing(self, deployment):
        router, client = deployment
        job = client.submit(self._circuit(), technique="direct")
        assert job.job_id.startswith("s")
        result = job.result(timeout=300)
        assert result.cost.gate_count > 0
        # A byte-identical resubmission lands on the same shard: its L1
        # already holds the result.
        repeat = client.submit(self._circuit(), technique="direct")
        assert repeat.job_id.split("-")[0] == job.job_id.split("-")[0]
        assert repeat.result(timeout=300).cost.gate_count == \
            result.cost.gate_count

    def test_unknown_job_id_is_404_at_the_router(self, deployment):
        from repro.server import JobNotFoundError

        router, client = deployment
        with pytest.raises(JobNotFoundError):
            client.job_status("s7-j1")  # No shard 7.
        with pytest.raises(JobNotFoundError):
            client.job_status("bogus")

    def test_health_and_metrics_aggregate_across_shards(self, deployment):
        router, client = deployment
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["per_shard"]) == {"s0", "s1"}
        metrics = client.metrics()
        assert metrics["shards"] == 2
        assert metrics["aggregate"]["workers"] == 4  # 2 shards x 2 workers.
        assert set(metrics["per_shard"]) == {"s0", "s1"}

    def test_suite_index_is_served_through_the_router(self, deployment):
        from repro.interop import suite_names

        router, client = deployment
        assert len(client.suite()) == len(suite_names())

    def test_prometheus_scrape_is_conformant_and_shard_labelled(
            self, deployment):
        import urllib.request

        from repro.telemetry.prometheus import validate_prometheus

        router, client = deployment
        client.healthz()  # every shard has served at least one request
        request = urllib.request.Request(
            router.url + "/metrics?format=prometheus")
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            document = response.read().decode("utf-8")

        # The in-repo scraper doubles as the conformance oracle.
        families = validate_prometheus(document)
        for name in ("repro_http_requests_total",
                     "repro_http_request_duration_seconds",
                     "repro_scheduler_queue_depth",
                     "repro_scheduler_jobs_total",
                     "repro_process_resident_memory_bytes",
                     "repro_server_uptime_seconds"):
            assert name in families, f"missing family {name}"

        # Every sample in the merged document names its shard, and both
        # shards contribute series.
        shards = set()
        for family in families.values():
            for _sample_name, labels, _value in family.samples:
                assert "shard" in labels
                shards.add(labels["shard"])
        assert shards == {"s0", "s1"}
