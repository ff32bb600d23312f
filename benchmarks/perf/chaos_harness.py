"""Chaos harness: fault-injected end-to-end resilience scenarios.

Each scenario boots real infrastructure (an in-process
:class:`repro.server.ShardRouter` with worker *processes*, or a
process-mode :class:`repro.service.CompilationService`), injects one
deterministic fault from :mod:`repro.resilience.faults`, and asserts the
recovery contract:

* ``shard_kill``      — SIGKILL one of two shards mid-traffic: every
                        submission still completes (failover), the shard
                        respawns, and the router reports healthy again.
* ``worker_kill``     — a process-pool compile worker dies on the first
                        dispatch: the job retries on a respawned pool and
                        completes.
* ``store_corruption`` — persisted results are garbled before reads: the
                        store quarantines them and recompiles; no client
                        ever sees a poisoned result.
* ``deadline_storm``  — a burst of impossible deadlines across the
                        gateway: every job resolves quickly (typed error
                        or degraded result), none wedge a worker.

Usage (from the repository root)::

    python benchmarks/perf/chaos_harness.py                 # all scenarios
    python benchmarks/perf/chaos_harness.py --scenario shard_kill
    python benchmarks/perf/chaos_harness.py -o chaos.json

Exit status is non-zero when any scenario's contract fails, so CI can
run this directly.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from typing import Dict, List

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from percentile import percentile  # noqa: E402
import repro  # noqa: E402
from repro.workloads import ghz_circuit, qft_circuit  # noqa: E402


def _corpus(count: int):
    """Distinct small circuits so submissions spread over both shards."""
    from repro.workloads import random_template_circuit

    base = [ghz_circuit(3), ghz_circuit(4), qft_circuit(3)]
    while len(base) < count:
        base.append(random_template_circuit(3, 10, seed=len(base)))
    return base[:count]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_shard_kill() -> Dict:
    """Kill one of two shards mid-traffic; traffic and health recover."""
    from repro.server import ReproClient, ShardRouter

    circuits = _corpus(10)
    latencies: List[float] = []
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as store:
        router = ShardRouter(shards=2, workers=2, store=store).start()
        try:
            client = ReproClient(router.url, retries=5, backoff=0.2,
                                 max_retry_seconds=30.0)
            victim = router._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            for circuit in circuits:
                start = time.perf_counter()
                try:
                    client.compile(circuit, technique="direct",
                                   use_cache=False, timeout=60.0)
                except Exception:
                    failures += 1
                latencies.append(time.perf_counter() - start)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (router.respawns().get(0, 0) >= 1
                        and len(router.live_shards()) == 2):
                    break
                time.sleep(0.2)
            health = client.healthz()
            respawned = (health.get("status") == "ok"
                         and health.get("live") == 2
                         and health.get("respawns", {}).get("s0", 0) >= 1)
        finally:
            router.shutdown()
    return {
        "requests": len(circuits),
        "failures": failures,
        "respawned": respawned,
        "p95_seconds": percentile(latencies, 0.95),
        "ok": failures == 0 and respawned,
    }


def scenario_worker_kill() -> Dict:
    """A process-pool worker dies on dispatch; the job retries through."""
    from repro.resilience.faults import (
        FaultPlan,
        FaultSpec,
        clear_fault_plan,
        install_fault_plan,
    )
    from repro.service import CompilationService

    circuit = ghz_circuit(3)
    target = repro.spin_qubit_target(3, "D0")
    install_fault_plan(FaultPlan([
        FaultSpec(site="worker.compile", action="die", nth=1),
    ]))
    try:
        service = CompilationService(workers=1, mode="process",
                                     worker_retries=2, retry_backoff=0.1)
        try:
            start = time.perf_counter()
            handle = service.submit(circuit, target, "direct", use_cache=False)
            result = handle.result(timeout=120)
            seconds = time.perf_counter() - start
            crashes = service.statistics()["worker_crashes"]
        finally:
            service.shutdown()
    finally:
        clear_fault_plan()
    return {
        "technique": result.technique,
        "worker_crashes": crashes,
        "seconds": seconds,
        "ok": result.technique == "direct" and crashes >= 1,
    }


def scenario_store_corruption() -> Dict:
    """Garbled store entries are quarantined, never served."""
    from repro.resilience.faults import (
        FaultPlan,
        FaultSpec,
        clear_fault_plan,
        install_fault_plan,
    )
    from repro.service import PersistentResultStore
    from repro.service.store import QUARANTINE_DIR
    from repro.api.cache import (
        clear_compilation_cache,
        install_persistent_store,
        uninstall_persistent_store,
    )

    circuit = ghz_circuit(3)
    target = repro.spin_qubit_target(3, "D0")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-store-") as root:
        store = PersistentResultStore(root)
        install_persistent_store(store)
        try:
            baseline = repro.compile(circuit, target, "direct")
            # Corrupt the next 3 store reads; L1 is cleared each round so
            # the reads really hit the disk tier.
            install_fault_plan(FaultPlan([
                FaultSpec(site="store.read", action="corrupt", nth=n)
                for n in (1, 2, 3)
            ]))
            mismatches = 0
            for _ in range(3):
                clear_compilation_cache()
                result = repro.compile(circuit, target, "direct")
                if (result.cost.gate_fidelity_product
                        != baseline.cost.gate_fidelity_product):
                    mismatches += 1
            stats = store.statistics()
            quarantined = len(os.listdir(os.path.join(root, QUARANTINE_DIR)))
        finally:
            clear_fault_plan()
            uninstall_persistent_store()
            clear_compilation_cache()
    return {
        "corrupted_reads": stats["corrupted"],
        "quarantined_files": quarantined,
        "result_mismatches": mismatches,
        "ok": stats["corrupted"] >= 1 and mismatches == 0,
    }


def scenario_deadline_storm() -> Dict:
    """A burst of impossible deadlines: fast typed failures, no wedging."""
    from repro.server import ReproClient, build_server
    from repro.server.client import CompilationFailedError

    circuits = _corpus(8)
    server = build_server(workers=2).start_background()
    outcomes = {"degraded": 0, "deadline_error": 0, "other": 0}
    latencies: List[float] = []
    try:
        client = ReproClient(server.url, retries=2, backoff=0.1)
        for index, circuit in enumerate(circuits):
            degrade = index % 2 == 0
            start = time.perf_counter()
            try:
                result = client.compile(
                    circuit, technique="sat_p", use_cache=False,
                    deadline=0.0,
                    on_deadline="degrade" if degrade else None)
                outcomes["degraded" if result.report.degraded_from
                         else "other"] += 1
            except CompilationFailedError as error:
                if "CompileDeadlineExceeded" in str(error):
                    outcomes["deadline_error"] += 1
                else:
                    outcomes["other"] += 1
            except Exception:
                outcomes["other"] += 1
            latencies.append(time.perf_counter() - start)
        # The service must be fully idle afterwards: nothing wedged.
        stats = server.gateway.service.statistics()
        stuck = stats["queue_depth"] + stats["busy_workers"]
    finally:
        server.stop()
    return {
        "requests": len(circuits),
        "outcomes": outcomes,
        "stuck_jobs": stuck,
        "p95_seconds": percentile(latencies, 0.95),
        "ok": (outcomes["other"] == 0 and stuck == 0
               and percentile(latencies, 0.95) < 30.0),
    }


SCENARIOS = {
    "shard_kill": scenario_shard_kill,
    "worker_kill": scenario_worker_kill,
    "store_corruption": scenario_store_corruption,
    "deadline_storm": scenario_deadline_storm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                        help="run one scenario (default: all)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    report: Dict[str, Dict] = {}
    for name in names:
        print(f"chaos: {name} ...", flush=True)
        started = time.perf_counter()
        try:
            outcome = SCENARIOS[name]()
        except Exception as error:  # noqa: BLE001 - report, don't crash
            outcome = {"ok": False,
                       "error": f"{type(error).__name__}: {error}"}
        outcome["wall_seconds"] = time.perf_counter() - started
        report[name] = outcome
        print(f"chaos: {name} -> {'OK' if outcome.get('ok') else 'FAILED'} "
              f"({outcome['wall_seconds']:.1f}s) "
              f"{json.dumps({k: v for k, v in outcome.items() if k != 'ok'})}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if all(outcome.get("ok") for outcome in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
