"""HTTP load harness: cold vs warm serving throughput and latency.

Boots a real ``python -m repro.server`` process (fresh interpreter, so
the cold phase really is cold), hammers it with N concurrent clients
over loopback HTTP, restarts the server against the same persistent
store (a warm restart: empty L1, hot L2) and hammers it again.  Records
requests/second and p50/p95 latency per phase under the ``server`` key
of ``BENCH_perf.json`` — merged into the existing report, so the perf
trajectory stays in one artifact.

Usage (from the repository root)::

    python benchmarks/perf/server_load.py                     # 8 clients
    python benchmarks/perf/server_load.py --clients 16 --requests 8
    python benchmarks/perf/server_load.py --shards 2          # sharded
    python benchmarks/perf/server_load.py --scaling           # 1 vs 2 shards

``--scaling`` additionally compares req/s at 1 vs 2 shards and then
*scales out* to 3 shards against the 2-shard run's ``dir:`` store,
counting the L2 hits the shards serve from each other's results.  Shard
scaling is process-level parallelism — the recorded ``cpu_count`` says
how much headroom the machine actually offered (a 1-core box can only
timeshare).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from percentile import percentile  # noqa: E402
from repro.circuits.circuit import QuantumCircuit  # noqa: E402
from repro.server import ReproClient  # noqa: E402
from repro.workloads import (  # noqa: E402
    ghz_circuit,
    hardware_efficient_ansatz,
    qaoa_ring_circuit,
    qft_circuit,
    quantum_volume_circuit,
    random_template_circuit,
)


def build_corpus() -> List[QuantumCircuit]:
    """Small distinct circuits: spreads work over shards and cache keys."""
    return [
        ghz_circuit(3),
        ghz_circuit(4),
        qft_circuit(3),
        quantum_volume_circuit(2, 2, seed=0),
        qaoa_ring_circuit(3, layers=1, seed=0),
        hardware_efficient_ansatz(3, layers=1, seed=0),
        random_template_circuit(3, 12, seed=0),
        random_template_circuit(3, 12, seed=1),
    ]


def boot_server(store: str, workers: int, shards: int,
                auth: str = None) -> Tuple[subprocess.Popen, str]:
    """Start ``python -m repro.server`` and wait for its banner line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro.server", "--port", "0",
               "--workers", str(workers), "--store", store]
    if shards > 1:
        command += ["--shards", str(shards)]
    if auth:
        command += ["--auth-keys", auth]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env)
    banner = process.stdout.readline()
    match = re.search(r"http://\S+?(?=[\s)]|$)", banner)
    if match is None:
        process.kill()
        raise RuntimeError(f"server did not come up: {banner!r}")
    url = match.group(0)
    ReproClient(url).wait_until_ready(timeout=60)
    return process, url


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def run_phase(url: str, clients: int, requests_per_client: int,
              corpus: List[QuantumCircuit],
              technique: str) -> Tuple[List[float], float]:
    """Fire ``clients`` concurrent workers; returns (latencies, wall)."""
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        client = ReproClient(url, timeout=300.0)
        barrier.wait()
        try:
            for request in range(requests_per_client):
                circuit = corpus[(index + request) % len(corpus)]
                started = time.perf_counter()
                client.compile(circuit, technique=technique, timeout=300)
                latencies[index].append(time.perf_counter() - started)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [value for per_client in latencies for value in per_client], wall


def phase_stats(latencies: List[float], wall: float) -> Dict[str, float]:
    return {
        "requests": len(latencies),
        "seconds": wall,
        "requests_per_second": len(latencies) / wall if wall > 0 else float("inf"),
        "p50_ms": 1e3 * percentile(latencies, 0.50),
        "p95_ms": 1e3 * percentile(latencies, 0.95),
        "mean_ms": 1e3 * sum(latencies) / len(latencies) if latencies else 0.0,
    }


def bench_server(clients: int, requests_per_client: int, workers: int,
                 shards: int, technique: str) -> Dict[str, object]:
    corpus = build_corpus()
    store = tempfile.mkdtemp(prefix="repro-server-load-")
    report: Dict[str, object] = {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "workers": workers,
        "shards": shards,
        "technique": technique,
        "corpus_circuits": len(corpus),
    }
    try:
        for phase in ("cold", "warm"):
            # A fresh server process per phase: the warm phase restarts
            # against the same store — empty L1, hot L2 — exactly like a
            # production rollout.
            process, url = boot_server(store, workers, shards)
            try:
                latencies, wall = run_phase(
                    url, clients, requests_per_client, corpus, technique)
                report[phase] = phase_stats(latencies, wall)
                if phase == "warm":
                    metrics = ReproClient(url).metrics()
                    if shards > 1:
                        hits = sum(
                            shard.get("service", {}).get("l2", {}).get("hits", 0)
                            for shard in metrics["per_shard"].values())
                    else:
                        hits = metrics["service"].get("l2", {}).get("hits", 0)
                    report["warm_l2_hits"] = hits
            finally:
                stop_server(process)
        cold_rps = report["cold"]["requests_per_second"]
        warm_rps = report["warm"]["requests_per_second"]
        report["warm_speedup"] = warm_rps / cold_rps if cold_rps > 0 else float("inf")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return report


def scaling_corpus(total: int) -> List[QuantumCircuit]:
    """One distinct circuit per request: every compile is real work."""
    return [random_template_circuit(3, 12, seed=seed) for seed in range(total)]


def run_unique_phase(url: str, clients: int, requests_per_client: int,
                     circuits: List[QuantumCircuit],
                     technique: str) -> Tuple[List[float], float]:
    """Like :func:`run_phase` but every request compiles its own circuit."""
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        client = ReproClient(url, timeout=300.0)
        barrier.wait()
        try:
            for request in range(requests_per_client):
                circuit = circuits[index * requests_per_client + request]
                started = time.perf_counter()
                client.compile(circuit, technique=technique, timeout=300)
                latencies[index].append(time.perf_counter() - started)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [value for per_client in latencies for value in per_client], wall


def bench_scaling(clients: int, requests_per_client: int, workers: int,
                  technique: str) -> Dict[str, object]:
    """Shard scaling: req/s at 1 vs 2 shards, then a scale-out warm run.

    Three deployments over the same distinct-circuit corpus:

    1. one shard, its own store — the single-node baseline;
    2. two shards, a fresh shared store — the scaling claim;
    3. three fresh shards over the 2-shard run's store — their L1s are
       empty and the modulo change reroutes most fingerprints to a shard
       that never compiled them, so the shared directory serves them
       (``cross_shard_l2_hits``: the shards' summed L2 hits).
    """
    circuits = scaling_corpus(clients * requests_per_client)
    report: Dict[str, object] = {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "workers": workers,
        "technique": technique,
        "cpu_count": os.cpu_count(),
    }
    single_store = tempfile.mkdtemp(prefix="repro-scale-1-")
    cluster_store = tempfile.mkdtemp(prefix="repro-scale-2-")
    try:
        runs = (
            ("one_shard", 1, f"dir:{single_store}"),
            ("two_shards", 2, f"dir:{cluster_store}"),
            # Scale-out: +1 shard over the SAME store.
            ("scale_out_warm", 3, f"dir:{cluster_store}"),
        )
        for name, shards, store in runs:
            process, url = boot_server(store, workers, shards)
            try:
                latencies, wall = run_unique_phase(
                    url, clients, requests_per_client, circuits, technique)
                report[name] = phase_stats(latencies, wall)
                if name == "scale_out_warm":
                    stores = ReproClient(url).metrics().get("stores", {})
                    report["cross_shard_l2_hits"] = int(
                        stores.get("local_dir", {}).get("hits", 0))
            finally:
                stop_server(process)
        one = report["one_shard"]["requests_per_second"]
        two = report["two_shards"]["requests_per_second"]
        report["two_shard_speedup"] = two / one if one > 0 else float("inf")
    finally:
        shutil.rmtree(single_store, ignore_errors=True)
        shutil.rmtree(cluster_store, ignore_errors=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--requests", type=int, default=5,
                        help="requests per client per phase (default 5)")
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker threads (default 4)")
    parser.add_argument("--shards", type=int, default=1,
                        help="server shard processes (default 1)")
    parser.add_argument("--technique", default="direct",
                        help="technique key every request compiles with "
                             "(default direct)")
    parser.add_argument("--scaling", action="store_true",
                        help="also run the 1-vs-2-shard scaling comparison "
                             "and the 3-shard scale-out warm run (adds a "
                             "'scaling' block to the 'server' key)")
    parser.add_argument("--scaling-technique", default="sat_p",
                        help="technique for the scaling runs (default "
                             "sat_p: CPU-bound compiles measure shard "
                             "scaling, not HTTP relay overhead)")
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        help="JSON report to merge the 'server' key into "
             "(default: BENCH_perf.json at the repo root)",
    )
    args = parser.parse_args(argv)

    report = bench_server(args.clients, args.requests, args.workers,
                          args.shards, args.technique)
    if args.scaling:
        report["scaling"] = bench_scaling(args.clients, args.requests,
                                          args.workers,
                                          args.scaling_technique)

    existing: Dict[str, object] = {}
    if os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing["server"] = report
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote 'server' key to {args.output}")
    for phase in ("cold", "warm"):
        stats = report[phase]
        print(f"  {phase}: {stats['requests_per_second']:8.2f} req/s  "
              f"p50 {stats['p50_ms']:7.1f} ms  p95 {stats['p95_ms']:7.1f} ms  "
              f"({stats['requests']} requests, {args.clients} clients)")
    print(f"  warm speedup {report['warm_speedup']:.2f}x, "
          f"{report['warm_l2_hits']} L2 hits after restart")
    if args.scaling:
        scaling = report["scaling"]
        for name in ("one_shard", "two_shards", "scale_out_warm"):
            stats = scaling[name]
            print(f"  {name:<15} {stats['requests_per_second']:8.2f} req/s  "
                  f"p50 {stats['p50_ms']:7.1f} ms")
        print(f"  2-shard speedup {scaling['two_shard_speedup']:.2f}x "
              f"({scaling['cpu_count']} cpu), "
              f"{scaling['cross_shard_l2_hits']} cross-shard L2 hits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
