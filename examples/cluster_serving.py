"""Serving tour: API keys, rate limits and a store shared by two nodes.

Run with ``python examples/cluster_serving.py``.  Two gateways open one
``dir:`` store directory, API keys gate every ``/v1`` route, and a result
one node computed is served from the shared store by the other — the
same pieces ``python -m repro.server --shards N --store DIR --auth-keys
keys.json`` wires up in production.
"""

import json
import shutil
import tempfile

from repro.server import (
    AuthenticationError,
    RateLimitedError,
    ReproClient,
    build_server,
)

QASM = ('OPENQASM 2.0; include "qelib1.inc"; '
        "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];")

KEYS = {"keys": [
    {"key": "sk-demo", "name": "demo", "priority": 8,
     "rate": 50, "burst": 100},
    {"key": "sk-trial", "name": "trial", "priority": 1,
     "rate": 1.0, "burst": 1},
]}


def main() -> None:
    store_root = tempfile.mkdtemp(prefix="repro-cluster-")
    auth = json.dumps(KEYS)

    # One node first; a second joins later over the same directory.
    node_a = build_server(workers=2, job_prefix="s0-", auth=auth,
                          store=f"dir:{store_root}").start_background()
    print(f"node A on {node_a.url}  (store {store_root})")

    # /v1 routes demand a key; health stays open for probes.
    try:
        ReproClient(node_a.url, retries=0, api_key="").suite()
    except AuthenticationError as error:
        print(f"\nno key -> HTTP {error.status}: {error}")

    # An authenticated compile; the client long-polls the result.
    client_a = ReproClient(node_a.url, api_key="sk-demo")
    job = client_a.submit(QASM, technique="sat_p",
                          max_improvement_rounds=60)
    print(f"\nsubmitted {job.job_id}; waiting on its result")
    result = job.result(timeout=120)
    print(f"adapted: {result.cost.gate_count} gates, "
          f"fidelity {result.cost.gate_fidelity_product:.4f} "
          f"({job.status()})")

    # Scale out: node B joins over the same store directory.  Its first
    # compile of the same circuit misses its memory cache and reads node
    # A's entry from the shared store.  (Both demo nodes share this
    # process's L1 memory cache; real deployments run one process per
    # node.  Clear it so node B has to go through the store.)
    from repro.api import clear_compilation_cache

    node_b = build_server(workers=2, job_prefix="s1-", auth=auth,
                          store=f"dir:{store_root}").start_background()
    print(f"\nnode B joined on {node_b.url}  (same store)")
    clear_compilation_cache()
    client_b = ReproClient(node_b.url, api_key="sk-demo")
    warm = client_b.compile(QASM, technique="sat_p",
                            max_improvement_rounds=60)
    stats = client_b.metrics()["service"]["l2"]
    print(f"node B served it from the shared store: cost match "
          f"{warm.cost == result.cost}, L2 hits={stats['hits']}")

    # The trial key's bucket holds one token: the second call is 429
    # with a Retry-After hint (the client retries it automatically when
    # retries are enabled).
    trial = ReproClient(node_b.url, retries=0, api_key="sk-trial")
    trial.suite()
    try:
        trial.suite()
    except RateLimitedError as error:
        print(f"\ntrial key throttled -> HTTP {error.status}, "
              f"retry after {error.payload['retry_after']:.2f}s")

    # Keyed decisions land on the auth metrics.
    auth_metrics = client_a.metrics()["auth"]
    print(f"\nauth on node A: enabled={auth_metrics['enabled']}, "
          f"keys={auth_metrics['keys']}")

    node_b.stop(drain=True)
    node_a.stop(drain=True)
    shutil.rmtree(store_root, ignore_errors=True)
    print("drained both nodes.")


if __name__ == "__main__":
    main()
