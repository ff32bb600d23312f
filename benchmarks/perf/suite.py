"""Perf-benchmark suite: simulation kernels, SAT, SMT, end-to-end compile.

Every benchmark returns a JSON-serializable dict with wall times in
seconds and, where a legacy baseline exists, the measured
``speedup`` (baseline time / new time).  The suite is preset-driven:

* ``smoke`` — tiny sizes, runs in well under a minute (CI perf-smoke job);
* ``full``  — the sizes quoted in the README performance section.

The end-to-end section reuses the per-stage wall times that the pipeline
already records in each result's :class:`repro.pipeline.CompilationReport`,
so compile timings here agree with what users see in production.
"""

from __future__ import annotations

import platform
import statistics
import time
from typing import Callable, Dict, List, Tuple

import repro
from repro.circuits.unitary import circuit_unitary, circuit_unitary_dense
from repro.hardware import spin_qubit_target
from repro.sat import Solver as SatSolver
from repro.sat.encodings import at_most_one_pairwise
from repro.simulator import DensityMatrixSimulator, sample_counts, simulate_statevector, simulate_statevector_dense
from repro.simulator.statevector import statevector_probabilities
from repro.smt import CheckResult, Implies, Bool, Optimize, Real, RealVal
from repro.workloads import ghz_circuit, qft_circuit, quantum_volume_circuit, random_template_circuit

PRESETS = {
    "smoke": {
        "statevector_qubits": [6, 10],
        "statevector_depth": 24,
        "density_qubits": [3, 4],
        "unitary_qubits": [5],
        "sat_holes": 6,
        "smt_chain": 8,
        "compile_workloads": [("ghz-3", lambda: ghz_circuit(3))],
        "compile_techniques": ["sat_p"],
        "repeats": 1,
        "dense_repeats": 1,
        "service_manifest": [
            {"kind": "ghz", "num_qubits": 3},
            {"kind": "qv", "num_qubits": 2, "depth": 2, "seed": 0},
            {"kind": "qaoa_ring", "num_qubits": 3, "layers": 1, "seed": 0},
            {"kind": "vqe_hwe", "num_qubits": 3, "layers": 1, "seed": 0},
        ],
        "service_technique": "direct",
        "service_workers": 2,
        "suite_benchmarks": ["toffoli_n3", "teleport_n3", "ghz_n5"],
        "suite_technique": "direct",
    },
    "full": {
        "statevector_qubits": [6, 8, 10, 12],
        "statevector_depth": 48,
        "density_qubits": [3, 4, 5],
        "unitary_qubits": [5, 7],
        "sat_holes": 7,
        "smt_chain": 14,
        "compile_workloads": [
            ("ghz-4", lambda: ghz_circuit(4)),
            ("qft-3", lambda: qft_circuit(3)),
            ("qv-3", lambda: quantum_volume_circuit(3, seed=0)),
            ("random-4x20", lambda: random_template_circuit(4, 20, seed=0)),
        ],
        "compile_techniques": ["sat_p", "direct", "kak_cz"],
        "repeats": 3,
        # Dense baselines are asymptotically slow by design (8+ seconds per
        # 12-qubit statevector run); one measurement is plenty.
        "dense_repeats": 1,
        "service_manifest": [
            {"kind": "ghz", "num_qubits": 4},
            {"kind": "qv", "num_qubits": 3, "depth": 3, "seed": 0},
            {"kind": "random", "num_qubits": 3, "depth": 20, "seed": 0},
            {"kind": "random", "num_qubits": 3, "depth": 20, "seed": 1},
            {"kind": "qaoa_ring", "num_qubits": 4, "layers": 2, "seed": 0},
            {"kind": "vqe_hwe", "num_qubits": 4, "layers": 2, "seed": 0},
            {"kind": "qft", "num_qubits": 3},
        ],
        "service_technique": "sat_p",
        "service_workers": 4,
        "suite_benchmarks": None,  # the whole bundled suite
        "suite_technique": "direct",
    },
}


def _best_of(func: Callable[[], object], repeats: int) -> float:
    """Wall time of the fastest of ``repeats`` runs."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_overhead(
    base: Callable[[], object], variant: Callable[[], object], pairs: int
) -> Tuple[float, float, float]:
    """Paired timing of ``variant`` against ``base``.

    Each side runs once untimed first, so neither timed side pays a cold
    start.  Then ``pairs`` pairs run back to back, alternating which side
    goes first, so drift and ordering cancel.  Returns the median time of
    each side and the overhead percent from the median paired ratio.
    """
    base()
    variant()
    base_times: List[float] = []
    variant_times: List[float] = []
    for pair in range(pairs):
        order = ((base, base_times), (variant, variant_times))
        for func, times in order if pair % 2 == 0 else reversed(order):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
    ratio = statistics.median(v / b for b, v in zip(base_times, variant_times))
    return statistics.median(base_times), statistics.median(variant_times), 100.0 * (ratio - 1.0)


#: Pairs per overhead figure; odd, so the median is one measured ratio.
OVERHEAD_PAIRS = 7


# ----------------------------------------------------------------------
# Simulation kernels
# ----------------------------------------------------------------------
def _kernel_vs_dense(
    kernel: Callable[[], object], dense: Callable[[], object], preset: Dict
) -> Dict:
    """Warm timings of a kernel path against its dense reference.

    Each side runs once untimed first, so neither timed side pays a cold
    start (imports, first-use caches); the kernel side runs first, so a
    cold start would otherwise land on it alone.
    """
    kernel()
    dense()
    fast = _best_of(kernel, preset["repeats"])
    slow = _best_of(dense, preset["dense_repeats"])
    return {
        "kernel_seconds": fast,
        "dense_seconds": slow,
        "speedup": slow / fast if fast > 0 else float("inf"),
    }


def bench_statevector(preset: Dict) -> List[Dict]:
    """Local-kernel vs dense-matrix statevector simulation."""
    rows: List[Dict] = []
    for num_qubits in preset["statevector_qubits"]:
        circuit = random_template_circuit(
            num_qubits, preset["statevector_depth"], seed=17
        )
        rows.append({
            "workload": circuit.name,
            "num_qubits": num_qubits,
            "num_gates": len(circuit.instructions),
            **_kernel_vs_dense(lambda: simulate_statevector(circuit),
                               lambda: simulate_statevector_dense(circuit), preset),
        })
    return rows


def bench_density(preset: Dict) -> List[Dict]:
    """Local-kernel vs dense-matrix noisy density-matrix simulation."""
    rows: List[Dict] = []
    for num_qubits in preset["density_qubits"]:
        target = spin_qubit_target(num_qubits)
        circuit = ghz_circuit(num_qubits)
        routed = repro.compile(circuit, target, "direct").adapted_circuit
        fast_sim = DensityMatrixSimulator(target)
        dense_sim = DensityMatrixSimulator(target, dense=True)
        rows.append({
            "workload": circuit.name,
            "num_qubits": num_qubits,
            "num_gates": len(routed.instructions),
            **_kernel_vs_dense(lambda: fast_sim.evolve(routed),
                               lambda: dense_sim.evolve(routed), preset),
        })
    return rows


def bench_unitary(preset: Dict) -> List[Dict]:
    """Local-kernel vs dense circuit-unitary construction."""
    rows: List[Dict] = []
    for num_qubits in preset["unitary_qubits"]:
        circuit = random_template_circuit(num_qubits, 8 * num_qubits, seed=5)
        rows.append({
            "workload": circuit.name,
            "num_qubits": num_qubits,
            **_kernel_vs_dense(lambda: circuit_unitary(circuit),
                               lambda: circuit_unitary_dense(circuit), preset),
        })
    return rows


def bench_sampling(preset: Dict) -> Dict:
    """Batched multinomial shot sampling from a simulated distribution."""
    circuit = quantum_volume_circuit(min(preset["statevector_qubits"]), seed=2)
    state = simulate_statevector(circuit)
    probabilities = statevector_probabilities(state, circuit.num_qubits)
    shots = 100000
    seconds = _best_of(
        lambda: sample_counts(probabilities, shots, seed=11), preset["repeats"]
    )
    return {"shots": shots, "outcomes": len(probabilities), "seconds": seconds}


# ----------------------------------------------------------------------
# Solver kernels
# ----------------------------------------------------------------------
def _pigeonhole_clauses(holes: int) -> List[List[int]]:
    """Pigeonhole principle PHP(holes+1, holes): UNSAT, propagation-heavy."""
    pigeons = holes + 1

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    clauses: List[List[int]] = []
    for pigeon in range(pigeons):
        clauses.append([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        clauses.extend(
            at_most_one_pairwise([var(pigeon, hole) for pigeon in range(pigeons)])
        )
    return clauses


def bench_sat(preset: Dict) -> Dict:
    """CDCL propagation/conflict throughput on a pigeonhole instance."""
    holes = preset["sat_holes"]
    clauses = _pigeonhole_clauses(holes)

    def solve() -> None:
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is False

    seconds = _best_of(solve, preset["repeats"])
    # Collect counters from one instrumented run.
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    solver.solve()
    stats = solver.statistics.as_dict()
    return {
        "instance": f"php_{holes + 1}_{holes}",
        "num_clauses": len(clauses),
        "seconds": seconds,
        "conflicts": stats["conflicts"],
        "propagations": stats["propagations"],
        "propagations_per_second": stats["propagations"] / seconds if seconds else 0.0,
    }


def _build_scheduling_omt(opt: Optimize, chain: int):
    """A guarded chain-scheduling OMT instance shaped like the paper's model."""
    starts = [Real(f"s{i}") for i in range(chain)]
    picks = [Bool(f"pick{i}") for i in range(chain)]
    opt.add(starts[0] >= RealVal(0))
    for i in range(1, chain):
        # Each block runs for 4 or 7 time units depending on a selection bit.
        opt.add(Implies(picks[i - 1], starts[i] >= starts[i - 1] + RealVal(4)))
        opt.add(Implies(~picks[i - 1], starts[i] >= starts[i - 1] + RealVal(7)))
        opt.add(starts[i] <= RealVal(10 * chain))
    makespan = Real("makespan")
    opt.add(makespan >= starts[-1] + RealVal(4))
    return opt.minimize(makespan)


def bench_smt(preset: Dict) -> Dict:
    """Incremental vs rebuild-per-check theory engine on an OMT workload."""
    chain = preset["smt_chain"]
    results: Dict[str, Dict] = {}
    for mode, incremental in (("incremental", True), ("legacy_rebuild", False)):
        def solve() -> None:
            opt = Optimize(incremental_theory=incremental)
            handle = _build_scheduling_omt(opt, chain)
            assert opt.check() == CheckResult.SAT
            handle.value()

        seconds = _best_of(solve, preset["repeats"])
        opt = Optimize(incremental_theory=incremental)
        handle = _build_scheduling_omt(opt, chain)
        opt.check()
        stats = opt.statistics()
        results[mode] = {
            "seconds": seconds,
            "optimum": str(handle.value()),
            "theory_checks": stats["theory_checks"],
            "theory_pivots": stats["theory_pivots"],
            "improvement_rounds": stats["improvement_rounds"],
        }
    legacy = results["legacy_rebuild"]["seconds"]
    fast = results["incremental"]["seconds"]
    assert results["incremental"]["optimum"] == results["legacy_rebuild"]["optimum"]
    return {
        "instance": f"guarded_chain_{chain}",
        "modes": results,
        "speedup": legacy / fast if fast > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# End-to-end compilation
# ----------------------------------------------------------------------
def bench_compile(preset: Dict) -> List[Dict]:
    """End-to-end ``repro.compile`` per technique, with pipeline stage times."""
    rows: List[Dict] = []
    for name, build in preset["compile_workloads"]:
        circuit = build()
        target = spin_qubit_target(max(4, circuit.num_qubits))
        for technique in preset["compile_techniques"]:
            start = time.perf_counter()
            result = repro.compile(circuit, target, technique, use_cache=False)
            seconds = time.perf_counter() - start
            report = result.report
            rows.append({
                "workload": name,
                "technique": technique,
                "seconds": seconds,
                "stage_seconds": report.stage_seconds() if report else {},
                # Numeric counters plus the selection/reason strings the
                # heuristic techniques report (never an empty dict).
                "solver_statistics": {
                    key: value
                    for key, value in (result.statistics or {}).items()
                    if isinstance(value, (int, float, str, bool))
                },
            })
    return rows


def bench_theory_engine_ab(preset: Dict) -> List[Dict]:
    """Incremental vs legacy theory engine on real adaptation workloads.

    Times the full ``repro.compile`` and its OMT ``solve`` stage for the
    SAT-based technique with both theory engines; results are cost-identical
    (asserted), only the solver wall time differs.
    """
    rows: List[Dict] = []
    for name, build in preset["compile_workloads"]:
        circuit = build()
        target = spin_qubit_target(max(4, circuit.num_qubits))
        timings: Dict[str, Dict] = {}
        objective_values = set()
        for mode, incremental in (("incremental", True), ("legacy_rebuild", False)):
            start = time.perf_counter()
            result = repro.compile(
                circuit, target, "sat_p",
                use_cache=False, incremental_theory=incremental,
            )
            seconds = time.perf_counter() - start
            stage_seconds = result.report.stage_seconds() if result.report else {}
            timings[mode] = {
                "seconds": seconds,
                "solve_seconds": stage_seconds.get("solve", 0.0),
                "theory_checks": int((result.statistics or {}).get("theory_checks", 0)),
            }
            objective_values.add(result.objective_value)
        assert len(objective_values) == 1, "theory engines disagree on the optimum"
        legacy = timings["legacy_rebuild"]["solve_seconds"]
        fast = timings["incremental"]["solve_seconds"]
        rows.append({
            "workload": name,
            "technique": "sat_p",
            "modes": timings,
            "solve_speedup": legacy / fast if fast > 0 else float("inf"),
        })
    return rows


def bench_trace(preset: Dict) -> Dict:
    """Tracing overhead: traced vs untraced compile of the same workload.

    Two numbers back the subsystem's overhead claims over PRs:

    * ``enabled_overhead_percent`` — wall-time cost of compiling with a
      live JSONL tracer versus tracing off (median paired ratio, see
      :func:`_paired_overhead`);
    * ``disabled_overhead_percent`` — estimated cost of the dormant
      hooks when tracing and telemetry are off: the measured per-call
      cost of the disabled :func:`repro.trace.event` hook times the
      number of events a traced compile emits, relative to the untraced
      compile time.
    """
    import os
    import tempfile

    from repro.telemetry.registry import (
        disable_telemetry,
        enable_telemetry,
        telemetry_enabled,
    )
    from repro.trace import event, load_events

    name, build = preset["compile_workloads"][0]
    circuit = build()
    target = spin_qubit_target(max(4, circuit.num_qubits))
    technique = preset["compile_techniques"][0]

    # Per-call cost of the disabled hook (one flag read + return); the
    # registry is switched off for the probe so the hook is dormant.
    was_enabled = telemetry_enabled()
    disable_telemetry()
    try:
        probe_calls = 200000
        start = time.perf_counter()
        for _ in range(probe_calls):
            event("bench.probe", "api")
        disabled_hook_ns = 1e9 * (time.perf_counter() - start) / probe_calls
    finally:
        if was_enabled:
            enable_telemetry()

    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-bench-trace-")
    os.close(handle)
    try:
        untraced, traced, enabled_overhead = _paired_overhead(
            lambda: repro.compile(circuit, target, technique, use_cache=False),
            lambda: repro.compile(circuit, target, technique,
                                  use_cache=False, trace=path),
            OVERHEAD_PAIRS,
        )
        events_total = len(load_events(path))
    finally:
        os.unlink(path)
    # The traced side ran once untimed plus once per pair.
    events_per_compile = events_total / (OVERHEAD_PAIRS + 1)
    disabled_estimate = events_per_compile * disabled_hook_ns * 1e-9
    return {
        "workload": name,
        "technique": technique,
        "untraced_seconds": untraced,
        "traced_seconds": traced,
        "enabled_overhead_percent": enabled_overhead,
        "events_per_compile": events_per_compile,
        "disabled_hook_ns": disabled_hook_ns,
        "disabled_overhead_percent": (
            100.0 * disabled_estimate / untraced if untraced > 0 else 0.0
        ),
    }


def bench_telemetry(preset: Dict) -> Dict:
    """Metric-registry overhead: disabled hook cost + enabled compile cost.

    Three numbers back the telemetry subsystem's overhead claims:

    * ``disabled_counter_ns`` — per-call cost of ``Counter.inc()`` with
      telemetry off (one module-flag read and return);
    * ``disabled_hook_ns`` — per-call cost of a realistic disabled
      :func:`repro.trace.event` hook (a cache-lookup event with one
      field), the single call each instrumented site makes;
    * ``enabled_overhead_percent`` — wall-time cost of compiling with
      the registry live (pass timers, cache counters, solver events)
      versus telemetry off (median paired ratio).
    """
    from repro.telemetry.instruments import SOLVER_EVENTS
    from repro.telemetry.registry import (
        disable_telemetry,
        enable_telemetry,
        telemetry_enabled,
    )
    from repro.trace import event

    name, build = preset["compile_workloads"][0]
    circuit = build()
    target = spin_qubit_target(max(4, circuit.num_qubits))
    technique = preset["compile_techniques"][0]

    was_enabled = telemetry_enabled()
    disable_telemetry()
    try:
        counter = SOLVER_EVENTS.labels("conflicts")
        probe_calls = 200000
        start = time.perf_counter()
        for _ in range(probe_calls):
            counter.inc()
        disabled_counter_ns = 1e9 * (time.perf_counter() - start) / probe_calls
        start = time.perf_counter()
        for _ in range(probe_calls):
            event("cache.hit", "api", level="memory")
        disabled_hook_ns = 1e9 * (time.perf_counter() - start) / probe_calls

        def compile_with_telemetry(enabled: bool) -> None:
            (enable_telemetry if enabled else disable_telemetry)()
            repro.compile(circuit, target, technique, use_cache=False)

        disabled_seconds, enabled_seconds, enabled_overhead = _paired_overhead(
            lambda: compile_with_telemetry(False),
            lambda: compile_with_telemetry(True),
            OVERHEAD_PAIRS,
        )
    finally:
        if was_enabled:
            enable_telemetry()
        else:
            disable_telemetry()
    return {
        "workload": name,
        "technique": technique,
        "disabled_counter_ns": disabled_counter_ns,
        "disabled_hook_ns": disabled_hook_ns,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_percent": enabled_overhead,
    }


def bench_resilience(preset: Dict) -> Dict:
    """Deadline-checkpoint overhead: disabled hook cost + degrade timing.

    The budget checkpoints (:func:`repro.resilience.check_budget`) sit
    on the SAT conflict loop, the SMT theory-check loop, the OMT rounds
    and every pipeline-pass boundary — i.e. the same hot paths as the
    trace hooks.  The contract is that a *disabled* checkpoint (no
    budget installed, the overwhelmingly common case) costs no more
    than ~2x the disabled trace hook.
    """
    from repro.resilience.budget import Budget, budget_scope, check_budget
    from repro.trace.tracer import current_tracer

    name, build = preset["compile_workloads"][0]
    circuit = build()
    target = spin_qubit_target(max(4, circuit.num_qubits))
    technique = preset["compile_techniques"][0]

    probe_calls = 200000
    # Disabled fast path: one module-flag read + return.
    start = time.perf_counter()
    for _ in range(probe_calls):
        check_budget("bench")
    disabled_hook_ns = 1e9 * (time.perf_counter() - start) / probe_calls

    # Armed path: contextvar read + charge/deadline comparison.
    with budget_scope(Budget(timeout=3600.0)):
        start = time.perf_counter()
        for _ in range(probe_calls):
            check_budget("bench")
        armed_hook_ns = 1e9 * (time.perf_counter() - start) / probe_calls

    # The reference cost this subsystem is allowed ~2x of.
    start = time.perf_counter()
    for _ in range(probe_calls):
        current_tracer()
    trace_hook_ns = 1e9 * (time.perf_counter() - start) / probe_calls

    plain, budgeted, budgeted_overhead = _paired_overhead(
        lambda: repro.compile(circuit, target, technique, use_cache=False),
        lambda: repro.compile(circuit, target, technique, use_cache=False,
                              timeout=3600.0),
        OVERHEAD_PAIRS,
    )

    # A deadline that always fires, resolved by the degradation ladder:
    # the whole detect-degrade-recompile round trip.
    start = time.perf_counter()
    degraded = repro.compile(circuit, target, "sat_p", use_cache=False,
                             timeout=0.0, on_deadline="degrade")
    degrade_seconds = time.perf_counter() - start
    assert degraded.report.degraded_from == "sat_p"

    return {
        "workload": name,
        "technique": technique,
        "disabled_check_ns": disabled_hook_ns,
        "armed_check_ns": armed_hook_ns,
        "trace_hook_ns": trace_hook_ns,
        "disabled_vs_trace_hook": (
            disabled_hook_ns / trace_hook_ns if trace_hook_ns > 0 else 0.0
        ),
        "plain_seconds": plain,
        "budgeted_seconds": budgeted,
        "budgeted_overhead_percent": budgeted_overhead,
        "degrade_roundtrip_seconds": degrade_seconds,
        "degraded_to": degraded.technique,
    }


# ----------------------------------------------------------------------
# Service layer
# ----------------------------------------------------------------------
def bench_service(preset: Dict) -> Dict:
    """Service-throughput benchmark: cold vs warm persistent-store runs.

    Builds the preset's workload manifest, compiles it twice through a
    :class:`repro.service.CompilationService` backed by a fresh temporary
    :class:`repro.service.PersistentResultStore` — the first run cold
    (every result compiled and persisted), the second in a simulated
    fresh process (L1 emptied) so every result is served from disk.
    """
    import shutil
    import tempfile

    from repro.api import clear_compilation_cache
    from repro.hardware import spin_qubit_target
    from repro.service import CompilationService, PersistentResultStore
    from repro.workloads.manifest import parse_manifest

    workloads, _ = parse_manifest(preset["service_manifest"])
    technique = preset["service_technique"]
    workers = preset["service_workers"]
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    clear_compilation_cache()
    try:
        timings = {}
        hits = {}
        for phase in ("cold", "warm"):
            store = PersistentResultStore(root)
            clear_compilation_cache()  # Each phase starts with an empty L1.
            started = time.perf_counter()
            with CompilationService(workers=workers, store=store) as service:
                handles = [
                    service.submit(
                        circuit,
                        spin_qubit_target(max(2, circuit.num_qubits)),
                        technique,
                    )
                    for _, circuit in workloads
                ]
                for handle in handles:
                    handle.result()
            timings[phase] = time.perf_counter() - started
            hits[phase] = store.info().hits
        assert hits["warm"] > 0, "warm run must be served from the store"
        return {
            "workloads": len(workloads),
            "technique": technique,
            "workers": workers,
            "cold_seconds": timings["cold"],
            "warm_seconds": timings["warm"],
            "cold_circuits_per_second": len(workloads) / timings["cold"],
            "warm_circuits_per_second": len(workloads) / timings["warm"],
            "warm_store_hits": hits["warm"],
            "warm_speedup": (
                timings["cold"] / timings["warm"]
                if timings["warm"] > 0 else float("inf")
            ),
        }
    finally:
        clear_compilation_cache()
        shutil.rmtree(root, ignore_errors=True)


def bench_qasm_suite(preset: Dict) -> Dict:
    """Bundled-benchmark throughput: parse + compile circuits/second.

    Runs the QASM frontend and ``repro.compile`` end to end over the
    bundled interop suite (cache disabled, so every circuit pays the
    full pipeline) — the number that tells us how fast real benchmark
    files flow through the stack.
    """
    from repro.interop import load_suite, qasm_to_circuit

    entries = load_suite(preset["suite_benchmarks"])
    technique = preset["suite_technique"]
    rows: List[Dict] = []
    total = 0.0
    for entry in entries:
        target = spin_qubit_target(max(2, entry.metadata()["qubits"]))

        def compile_entry(entry=entry, target=target):
            # Parse from source each time, deliberately: the measured
            # number is frontend + full pipeline (target built outside,
            # like bench_compile).
            circuit = qasm_to_circuit(entry.qasm, name=entry.name)
            return repro.compile(circuit, target, technique, use_cache=False)

        seconds = _best_of(compile_entry, preset["repeats"])
        total += seconds
        metadata = entry.metadata()
        rows.append({
            "benchmark": entry.name,
            "qubits": metadata["qubits"],
            "input_gates": metadata["gates"],
            "seconds": seconds,
        })
    return {
        "technique": technique,
        "benchmarks": len(entries),
        "seconds": total,
        "circuits_per_second": len(entries) / total if total > 0 else float("inf"),
        "per_benchmark": rows,
    }


# ----------------------------------------------------------------------
def run_suite(preset_name: str) -> Dict:
    """Run every benchmark of the preset and return the report dict."""
    preset = PRESETS[preset_name]
    return {
        "preset": preset_name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "statevector": bench_statevector(preset),
        "density": bench_density(preset),
        "unitary": bench_unitary(preset),
        "sampling": bench_sampling(preset),
        "sat": bench_sat(preset),
        "smt": bench_smt(preset),
        "compile": bench_compile(preset),
        "trace": bench_trace(preset),
        "telemetry": bench_telemetry(preset),
        "resilience": bench_resilience(preset),
        "theory_engine_ab": bench_theory_engine_ab(preset),
        "service": bench_service(preset),
        "suite": bench_qasm_suite(preset),
    }
