"""End-to-end tests of the SMT adaptation, the baselines and the paper example.

All compilations go through the unified :func:`repro.compile` facade; the
legacy adapter-class shims are exercised in ``tests/api/test_shims.py``.
"""

import math

import pytest

import repro
from repro.circuits import QuantumCircuit, allclose_up_to_global_phase, circuit_unitary
from repro.core import (
    AdaptationModel,
    OBJECTIVE_COMBINED,
    OBJECTIVE_FIDELITY,
    OBJECTIVE_IDLE,
    evaluate_rules,
    preprocess,
    standard_rules,
)
from repro.hardware import spin_qubit_target
from repro.workloads import ghz_circuit, random_template_circuit

def paper_like_example_circuit():
    """A 3-qubit circuit in the IBM basis with CNOT and SWAP structure
    similar in spirit to the Fig. 4 worked example (three two-qubit blocks)."""
    circuit = QuantumCircuit(3, name="paper_example")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.swap(0, 1)
    circuit.rz(0.5, 1)
    circuit.cx(1, 2)
    circuit.swap(1, 2)
    circuit.cx(0, 1)
    circuit.h(2)
    return circuit


class TestSatTechniques:
    @pytest.mark.parametrize("objective", [OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED])
    def test_adaptation_preserves_unitary(self, objective):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, f"sat_{objective}", verify=True)
        assert allclose_up_to_global_phase(
            circuit_unitary(result.adapted_circuit), circuit_unitary(circuit), atol=1e-6
        )

    def test_native_gates_only(self):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, "sat_p")
        for instruction in result.adapted_circuit:
            if len(instruction.qubits) == 2:
                assert target.supports(instruction.name), instruction

    def test_fidelity_objective_never_worse_than_baseline(self):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, "sat_f")
        assert result.cost.gate_fidelity_product >= result.baseline_cost.gate_fidelity_product - 1e-12
        assert result.fidelity_change >= -1e-12

    def test_idle_objective_reduces_idle_time(self):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        direct = repro.compile(circuit, target, "direct")
        sat_idle = repro.compile(circuit, target, "sat_r")
        assert sat_idle.cost.total_idle_time <= direct.cost.total_idle_time + 1e-9
        assert sat_idle.idle_time_decrease >= -1e-12

    def test_swap_substitution_chosen_for_idle_objective(self):
        """For a circuit dominated by SWAPs, the idle objective picks a native
        swap realization instead of the 3-CZ translation."""
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        target = spin_qubit_target(2)
        result = repro.compile(circuit, target, "sat_r")
        names = [s.rule_name for s in result.chosen_substitutions]
        assert any(name in ("swap_d", "swap_c", "kak") for name in names)
        assert result.cost.duration < repro.compile(circuit, target, "direct").cost.duration

    def test_fidelity_objective_prefers_composite_swap(self):
        """swap_c has the same fidelity as CZ but far fewer gates, so the
        fidelity objective substitutes it for translated SWAPs."""
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        target = spin_qubit_target(2)
        result = repro.compile(circuit, target, "sat_f")
        assert any(s.rule_name == "swap_c" for s in result.chosen_substitutions)

    def test_adapter_routes_when_needed(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        target = spin_qubit_target(4)
        result = repro.compile(circuit, target, "sat_f")
        for instruction in result.adapted_circuit:
            if len(instruction.qubits) == 2:
                assert target.are_connected(*instruction.qubits)

    def test_statistics_populated(self):
        circuit = ghz_circuit(3)
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, "sat_f")
        assert result.statistics["optimality"] == "proven"
        assert result.statistics["blocks"] == 2
        assert "search_nodes" in result.statistics
        assert result.objective_value is not None


class TestModelSolutionSerialization:
    def test_solution_round_trips_exactly_through_json(self):
        """Block schedules keep integer keys and exact floats through
        to_dict -> json -> from_dict."""
        import json

        from repro.core.model import ModelSolution

        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.cx(0, 1)
        target = spin_qubit_target(2)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        solution = AdaptationModel(
            preprocessed, substitutions, OBJECTIVE_COMBINED
        ).solve()
        payload = json.loads(json.dumps(solution.to_dict()))
        restored = ModelSolution.from_dict(payload)
        assert restored.objective_value == solution.objective_value
        assert restored.total_duration == solution.total_duration
        assert restored.block_durations == solution.block_durations
        assert restored.block_log_fidelities == solution.block_log_fidelities
        assert restored.block_start_times == solution.block_start_times
        assert all(isinstance(k, int) for k in restored.block_durations)
        assert [s.to_dict() for s in restored.chosen_substitutions] == [
            s.to_dict() for s in solution.chosen_substitutions
        ]


class TestModelSemantics:
    def test_incompatible_substitutions_never_chosen_together(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        target = spin_qubit_target(2)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        for objective in (OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED):
            solution = AdaptationModel(preprocessed, substitutions, objective).solve()
            chosen = solution.chosen_substitutions
            for first_index, first in enumerate(chosen):
                for second in chosen[first_index + 1:]:
                    assert not first.conflicts_with(second)

    def test_block_duration_follows_eq3(self):
        """d_b equals the reference duration plus the chosen substitution deltas."""
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        target = spin_qubit_target(2)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        solution = AdaptationModel(preprocessed, substitutions, OBJECTIVE_IDLE).solve()
        expected = preprocessed.blocks[0].reference_duration + sum(
            s.duration_delta for s in solution.chosen_substitutions
        )
        assert solution.block_durations[0] == pytest.approx(expected)

    def test_schedule_respects_dependencies(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2).cx(0, 1)
        target = spin_qubit_target(3)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        solution = AdaptationModel(preprocessed, substitutions, OBJECTIVE_IDLE).solve()
        graph = preprocessed.dependency_graph
        for source, destination in graph.edges:
            assert (
                solution.block_start_times[destination]
                >= solution.block_start_times[source] + solution.block_durations[source] - 1e-6
            )

    def test_unknown_objective_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        target = spin_qubit_target(2)
        preprocessed = preprocess(circuit, target)
        with pytest.raises(ValueError):
            AdaptationModel(preprocessed, [], objective="speed")


class TestBaselines:
    def test_direct_translation_uses_only_cz(self):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, "direct")
        for instruction in result.adapted_circuit:
            if len(instruction.qubits) == 2:
                assert instruction.name == "cz"
        assert allclose_up_to_global_phase(
            circuit_unitary(result.adapted_circuit), circuit_unitary(circuit), atol=1e-6
        )

    @pytest.mark.parametrize("cz_gate", ["cz", "cz_d"])
    def test_kak_adapter_equivalence_and_basis(self, cz_gate):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, {"cz": "kak_cz", "cz_d": "kak_dcz"}[cz_gate])
        assert allclose_up_to_global_phase(
            circuit_unitary(result.adapted_circuit), circuit_unitary(circuit), atol=1e-6
        )
        two_qubit_names = {
            inst.name for inst in result.adapted_circuit if len(inst.qubits) == 2
        }
        assert two_qubit_names <= {cz_gate}

    def test_kak_with_diabatic_cz_lowers_fidelity(self):
        """The diabatic CZ has fidelity 0.99 < 0.999, so KAK(cz_d) hurts the
        gate-fidelity product (the paper's Fig. 5 observation)."""
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        kak_czd = repro.compile(circuit, target, "kak_dcz")
        assert kak_czd.cost.gate_fidelity_product < kak_czd.baseline_cost.gate_fidelity_product

    @pytest.mark.parametrize("objective", ["fidelity", "idle"])
    def test_template_optimizer_equivalence(self, objective):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, {"fidelity": "template_f", "idle": "template_r"}[objective])
        assert allclose_up_to_global_phase(
            circuit_unitary(result.adapted_circuit), circuit_unitary(circuit), atol=1e-6
        )

    def test_template_optimizer_never_hurts_its_objective(self):
        circuit = paper_like_example_circuit()
        target = spin_qubit_target(3)
        fidelity_result = repro.compile(circuit, target, "template_f")
        assert (
            fidelity_result.cost.gate_fidelity_product
            >= fidelity_result.baseline_cost.gate_fidelity_product - 1e-12
        )

    def test_invalid_technique_key_rejected(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        with pytest.raises(repro.UnknownTechniqueError):
            repro.compile(circuit, spin_qubit_target(2), technique="speed")

    def test_fidelity_objective_reports_critical_path_duration(self):
        """Without schedule variables (Eq. 8), the makespan is the critical
        path of the block dependency graph, not 0.0."""
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2).cx(0, 1)
        target = spin_qubit_target(3)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        solution = AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY).solve()
        assert solution.total_duration > 0.0
        # The three blocks form a chain, so the critical path is the sum of
        # the solved block durations.
        assert solution.total_duration == pytest.approx(
            sum(solution.block_durations.values())
        )
        # The derived ASAP starts respect the dependency graph.
        for source, destination in preprocessed.dependency_graph.edges:
            assert (
                solution.block_start_times[destination]
                >= solution.block_start_times[source]
                + solution.block_durations[source]
                - 1e-9
            )

    def test_fidelity_and_idle_makespans_agree_without_substitutions(self):
        """Critical-path makespan matches the scheduled makespan when both
        models keep the reference translation (no candidate substitutions)."""
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(1, 2)
        target = spin_qubit_target(3)
        preprocessed = preprocess(circuit, target)
        fidelity = AdaptationModel(preprocessed, [], OBJECTIVE_FIDELITY).solve()
        idle = AdaptationModel(preprocessed, [], OBJECTIVE_IDLE).solve()
        assert fidelity.total_duration == pytest.approx(idle.total_duration)


class TestSatBeatsOrMatchesBaselines:
    """The headline qualitative claim: the SMT adaptation is at least as good
    as every baseline on its own objective."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fidelity_dominance_on_random_circuits(self, seed):
        circuit = random_template_circuit(3, 25, seed=seed)
        target = spin_qubit_target(3)
        sat = repro.compile(circuit, target, "sat_f")
        template = repro.compile(circuit, target, "template_f")
        direct = repro.compile(circuit, target, "direct")
        assert sat.cost.gate_fidelity_product >= direct.cost.gate_fidelity_product - 1e-9
        assert sat.cost.gate_fidelity_product >= template.cost.gate_fidelity_product - 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_idle_dominance_on_random_circuits(self, seed):
        circuit = random_template_circuit(3, 25, seed=seed)
        target = spin_qubit_target(3)
        sat = repro.compile(circuit, target, "sat_r")
        direct = repro.compile(circuit, target, "direct")
        assert sat.cost.total_idle_time <= direct.cost.total_idle_time + 1e-6


class TestPaperWorkedExample:
    """Eq. (11)-style bookkeeping on a SWAP-containing block with D0 timings."""

    def test_block1_style_duration_terms(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).swap(0, 1)
        target = spin_qubit_target(2, "D0", include_diabatic_cz=False)
        preprocessed = preprocess(circuit, target)
        substitutions = evaluate_rules(preprocessed, standard_rules())
        by_rule = {}
        for substitution in substitutions:
            by_rule.setdefault(substitution.rule_name, []).append(substitution)
        # The four rule families of the example are all present.
        assert set(by_rule) == {"crot", "swap_d", "swap_c", "kak"}
        # The conditional-rotation substitution increases the block duration
        # (660 + 30 vs 212 for the translated CNOT), the swap substitutions
        # decrease it, exactly as in the example's Eq. (11) discussion.
        assert by_rule["crot"][0].duration_delta > 0
        assert by_rule["swap_d"][0].duration_delta < 0
        assert by_rule["swap_c"][0].duration_delta < 0
        assert by_rule["swap_d"][0].duration_delta < by_rule["swap_c"][0].duration_delta
        # Minimizing duration via the idle objective picks a swap substitution
        # and, for the CNOT, keeps the CZ translation (CROT is slower).
        solution = AdaptationModel(preprocessed, substitutions, OBJECTIVE_IDLE).solve()
        chosen_names = {s.rule_name for s in solution.chosen_substitutions}
        assert chosen_names & {"swap_d", "kak"}
        assert "crot" not in chosen_names
