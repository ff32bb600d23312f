"""The facade acceptance surface: compile() parity and compile_many() batches."""

import pytest

import repro
from repro.api import PAPER_TECHNIQUES, clear_compilation_cache
from repro.circuits import allclose_up_to_global_phase, circuit_unitary
from repro.hardware import spin_qubit_target
from repro.workloads import WorkloadSpec, evaluation_suite, quantum_volume_circuit


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compilation_cache()
    yield
    clear_compilation_cache()


def quickstart_circuit():
    circuit = repro.QuantumCircuit(3, name="quickstart")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.swap(1, 2)
    circuit.cx(0, 1)
    circuit.rz(0.25, 2)
    return circuit


class TestCompile:
    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    def test_every_registry_key_compiles_the_quickstart_circuit(self, technique):
        circuit = quickstart_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, technique=technique, verify=True)
        assert result.technique == technique
        assert result.cost.gate_fidelity_product > 0
        assert result.report is not None and len(result.report.stages) == 8
        assert allclose_up_to_global_phase(
            circuit_unitary(result.adapted_circuit), circuit_unitary(circuit),
            atol=1e-6,
        )

    def test_default_technique_is_sat_p(self):
        result = repro.compile(quickstart_circuit(), spin_qubit_target(3))
        assert result.technique == "sat_p"

    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    def test_statistics_are_never_empty(self, technique):
        """Heuristic techniques report selection counters (or an explicit
        reason), not a silently empty statistics dict."""
        result = repro.compile(quickstart_circuit(), spin_qubit_target(3),
                               technique=technique)
        statistics = result.statistics
        assert statistics, f"{technique} reported no statistics"
        if technique == "sat_f":
            # SAT_F is solved exactly per block, not by the OMT loop.
            assert statistics["optimality"] == "proven"
            assert statistics["blocks"] >= 1
            assert statistics["search_nodes"] >= statistics["blocks"]
            assert "improvement_rounds" not in statistics
        elif technique.startswith("sat_"):
            assert statistics["improvement_rounds"] >= 1
            assert statistics["optimality"] in ("proven", "capped", "unknown")
        else:
            assert statistics["selection"] in ("greedy", "all", "none")
            assert "candidates" in statistics and "accepted" in statistics

    def test_direct_is_its_own_baseline_even_when_merged(self):
        """Direct translation is the normalization reference, so its cost
        deltas stay exactly zero with single-qubit merging enabled."""
        circuit = quickstart_circuit()
        target = spin_qubit_target(3)
        merged = repro.compile(circuit, target, "direct",
                               merge_single_qubit_gates=True)
        assert merged.baseline_cost == merged.cost
        assert merged.fidelity_change == 0.0

    def test_compile_is_deterministic(self):
        circuit = quickstart_circuit()
        target = spin_qubit_target(3)
        first = repro.compile(circuit, target, "sat_p", use_cache=False)
        second = repro.compile(circuit, target, "sat_p", use_cache=False)
        assert first.cost == second.cost
        assert first.objective_value == second.objective_value


class TestCompileMany:
    def test_batch_over_evaluation_suite_returns_reports(self):
        suite = evaluation_suite(max_qubits=3, seeds=(0,))
        results = repro.compile_many(suite, technique="direct")
        assert len(results) == len(suite)
        for spec in suite:
            result = results[spec.name]
            report = result.report
            assert report is not None
            timings = report.stage_seconds()
            assert set(timings) == {
                "route", "preprocess", "evaluate_rules", "solve",
                "apply", "merge_1q", "verify", "analyze_cost",
            }
            assert all(seconds >= 0.0 for seconds in timings.values())

    def test_batch_accepts_mixed_item_kinds(self):
        circuit = quickstart_circuit()
        items = [
            circuit,
            ("renamed", quickstart_circuit()),
            WorkloadSpec("qv", 2, 2, 0),
        ]
        results = repro.compile_many(items, technique="direct")
        assert set(results) == {"quickstart", "renamed", "qv-q2-d2-s0"}

    def test_duplicate_names_are_not_dropped(self):
        items = [quickstart_circuit(), quickstart_circuit()]
        results = repro.compile_many(items, technique="direct")
        assert len(results) == 2

    def test_explicit_target_and_callable_target(self):
        circuit = quickstart_circuit()
        fixed = spin_qubit_target(3, "D1")
        by_target = repro.compile_many([circuit], target=fixed, technique="direct")
        by_factory = repro.compile_many(
            [circuit],
            target=lambda c: spin_qubit_target(c.num_qubits, "D1"),
            technique="direct",
        )
        assert (
            by_target["quickstart"].cost.duration
            == by_factory["quickstart"].cost.duration
        )

    def test_batch_matches_individual_compiles(self):
        suite = [WorkloadSpec("qv", 2, 2, 0), WorkloadSpec("random", 2, 10, 1)]
        batch = repro.compile_many(suite, technique="template_f")
        for spec in suite:
            circuit = (
                quantum_volume_circuit(spec.num_qubits, spec.depth, seed=spec.seed)
                if spec.kind == "qv"
                else None
            )
            if circuit is None:
                continue
            single = repro.compile(
                circuit, spin_qubit_target(max(2, spec.num_qubits)), "template_f"
            )
            assert batch[spec.name].cost == single.cost

    def test_rejects_unknown_item_type(self):
        with pytest.raises(TypeError):
            repro.compile_many([42], technique="direct")

    def test_process_pool_fanout_matches_serial(self):
        suite = [
            WorkloadSpec("qv", 2, 2, 0),
            WorkloadSpec("random", 2, 10, 0),
            WorkloadSpec("random", 2, 10, 1),
        ]
        serial = repro.compile_many(suite, technique="direct", use_cache=False)
        clear_compilation_cache()
        parallel = repro.compile_many(suite, technique="direct", processes=2)
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].cost == parallel[name].cost
        # Worker results were merged into the local cache.
        warm = repro.compile_many(suite, technique="direct")
        assert all(r.report.cache_hit for r in warm.values())

    def test_process_pool_fanout_returns_per_item_reports(self):
        """Every fanned-out item carries its own full per-stage report."""
        suite = [
            WorkloadSpec("qv", 2, 2, 0),
            WorkloadSpec("random", 2, 10, 0),
            WorkloadSpec("random", 2, 12, 1),
        ]
        results = repro.compile_many(suite, technique="direct", processes=2)
        assert len(results) == len(suite)
        hashes = set()
        for spec in suite:
            report = results[spec.name].report
            assert report is not None
            assert report.cache_hit is False
            assert report.technique == "direct"
            assert set(report.stage_seconds()) == {
                "route", "preprocess", "evaluate_rules", "solve",
                "apply", "merge_1q", "verify", "analyze_cost",
            }
            assert report.total_seconds >= 0.0
            assert report.circuit_hash
            hashes.add(report.circuit_hash)
        assert len(hashes) == len(suite)  # Reports were not cross-wired.

    def test_process_pool_fanout_cache_hits_survive_the_round_trip(self):
        """Pre-warmed entries are served from the parent cache (not
        recompiled in workers), and worker results hit on the next batch."""
        suite = [
            WorkloadSpec("qv", 2, 2, 0),
            WorkloadSpec("random", 2, 10, 0),
            WorkloadSpec("random", 2, 10, 1),
        ]
        warm_spec = suite[0]
        single = repro.compile_many([warm_spec], technique="direct")
        assert single[warm_spec.name].report.cache_hit is False

        mixed = repro.compile_many(suite, technique="direct", processes=2)
        assert list(mixed) == [spec.name for spec in suite]  # Input order kept.
        assert mixed[warm_spec.name].report.cache_hit is True
        cold_names = [spec.name for spec in suite[1:]]
        assert all(mixed[name].report.cache_hit is False for name in cold_names)

        # Everything — pre-warmed and worker-compiled — now hits locally,
        # with identical costs across the round trip.
        warm = repro.compile_many(suite, technique="direct")
        for spec in suite:
            assert warm[spec.name].report.cache_hit is True
            assert warm[spec.name].cost == mixed[spec.name].cost


class TestQasmInput:
    """repro.compile() ingests OpenQASM 2.0 strings and .qasm paths (PR 4)."""

    SOURCE = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
        "qreg q[3];\nh q[0];\ncx q[0],q[1];\nswap q[1],q[2];\n"
    )

    def test_compile_from_source_string(self):
        target = spin_qubit_target(3)
        # verify=True makes the VerifyPass raise on any non-equivalence.
        result = repro.compile(
            self.SOURCE, target, "direct", use_cache=False, verify=True
        )
        assert result.cost.gate_count > 0
        assert result.report.circuit_name == "qasm_circuit"

    def test_compile_from_path(self, tmp_path):
        path = tmp_path / "bench.qasm"
        path.write_text(self.SOURCE)
        target = spin_qubit_target(3)
        result = repro.compile(str(path), target, "direct", use_cache=False)
        assert result.cost.gate_count > 0

    def test_missing_path_is_a_clean_error(self):
        with pytest.raises(FileNotFoundError):
            repro.compile("/nonexistent/bench.qasm", spin_qubit_target(2))

    def test_malformed_source_raises_qasm_error(self):
        with pytest.raises(repro.QasmError):
            repro.compile("OPENQASM 2.0;\nqreg q[2]\nh q[0];", spin_qubit_target(2))

    def test_compile_many_accepts_qasm_strings(self):
        results = repro.compile_many(
            [("from_qasm", repro.circuit_from_qasm(self.SOURCE)), self.SOURCE],
            technique="direct",
        )
        assert "from_qasm" in results
        assert "qasm_circuit" in results
