"""Tests for the statevector / density-matrix simulators and noise channels."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import spin_qubit_target
from repro.hardware.target import GateProperties, Target
from repro.simulator import (
    DensityMatrixSimulator,
    amplitude_damping_kraus,
    depolarizing_kraus,
    depolarizing_strength_for_fidelity,
    hellinger_distance,
    hellinger_fidelity,
    circuit_probabilities,
    phase_damping_kraus,
    simulate_statevector,
    thermal_relaxation_kraus,
    total_variation_distance,
)
from repro.simulator.statevector import statevector_probabilities
from repro.workloads import ghz_circuit


def perfect_target(num_qubits=4):
    """A noise-free target (fidelity 1.0 everywhere) for sanity checks."""
    return Target(
        name="perfect",
        num_qubits=num_qubits,
        single_qubit_gates=GateProperties(30.0, 1.0),
        two_qubit_gates={name: GateProperties(100.0, 1.0) for name in
                         ("cz", "cz_d", "cx", "swap", "swap_d", "swap_c", "crot")},
        coupling_map=None,
        t1=1e15,
        t2=1e15,
    )


class TestStatevector:
    def test_bell_state(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        probabilities = circuit_probabilities(circuit)
        assert probabilities == pytest.approx({"00": 0.5, "11": 0.5})

    def test_ghz_state(self):
        probabilities = circuit_probabilities(ghz_circuit(3))
        assert probabilities == pytest.approx({"000": 0.5, "111": 0.5})

    def test_custom_initial_state(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        state = simulate_statevector(circuit, initial_state=np.array([0, 1], dtype=complex))
        assert np.allclose(state, [1, 0])

    def test_wrong_initial_state_rejected(self):
        with pytest.raises(ValueError):
            simulate_statevector(QuantumCircuit(2), initial_state=np.ones(3))

    def test_replacements_do_not_warn(self):
        import warnings

        circuit = ghz_circuit(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            circuit_probabilities(circuit)
            statevector_probabilities(simulate_statevector(circuit), 2)


class TestNoiseChannels:
    def test_depolarizing_kraus_complete(self):
        for probability in (0.0, 0.01, 0.5, 1.0):
            kraus = depolarizing_kraus(probability)
            total = sum(k.conj().T @ k for k in kraus)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_amplitude_and_phase_damping_complete(self):
        for gamma in (0.0, 0.3, 1.0):
            total = sum(k.conj().T @ k for k in amplitude_damping_kraus(gamma))
            assert np.allclose(total, np.eye(2), atol=1e-12)
        for lam in (0.0, 0.3, 1.0):
            total = sum(k.conj().T @ k for k in phase_damping_kraus(lam))
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_thermal_relaxation_complete_and_decaying(self):
        kraus = thermal_relaxation_kraus(500.0, t1=2.9e6, t2=2900.0)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2), atol=1e-10)
        # Coherence of |+> decays by exp(-t/T2).
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        evolved = sum(k @ plus @ k.conj().T for k in kraus)
        assert abs(evolved[0, 1]) == pytest.approx(0.5 * math.exp(-500.0 / 2900.0), rel=1e-6)

    def test_thermal_relaxation_invalid_inputs(self):
        with pytest.raises(ValueError):
            thermal_relaxation_kraus(-1.0, 100.0, 100.0)
        with pytest.raises(ValueError):
            thermal_relaxation_kraus(1.0, 100.0, 300.0)

    def test_depolarizing_strength(self):
        assert depolarizing_strength_for_fidelity(1.0, 1) == 0.0
        assert depolarizing_strength_for_fidelity(0.99, 1) == pytest.approx(0.01)
        assert depolarizing_strength_for_fidelity(0.99, 2) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            depolarizing_strength_for_fidelity(0.0, 1)


class TestMetrics:
    def test_identical_distributions(self):
        dist = {"00": 0.5, "11": 0.5}
        assert hellinger_distance(dist, dist) == pytest.approx(0.0, abs=1e-12)
        assert hellinger_fidelity(dist, dist) == pytest.approx(1.0)
        assert total_variation_distance(dist, dist) == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        first = {"00": 1.0}
        second = {"11": 1.0}
        assert hellinger_distance(first, second) == pytest.approx(1.0)
        assert hellinger_fidelity(first, second) == pytest.approx(0.0)
        assert total_variation_distance(first, second) == pytest.approx(1.0)

    def test_unnormalized_inputs_are_normalized(self):
        first = {"0": 2.0, "1": 2.0}
        second = {"0": 0.5, "1": 0.5}
        assert hellinger_fidelity(first, second) == pytest.approx(1.0)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            hellinger_distance({}, {"0": 1.0})


class TestDensityMatrixSimulator:
    def test_noiseless_target_matches_statevector(self):
        circuit = ghz_circuit(3)
        simulator = DensityMatrixSimulator(perfect_target(3))
        result = simulator.run(circuit)
        assert result.hellinger_fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.probabilities == pytest.approx(result.ideal_probabilities, abs=1e-9)

    def test_density_matrix_is_valid(self):
        target = spin_qubit_target(2)
        circuit = QuantumCircuit(2)
        circuit.h(0).cz(0, 1).h(1)
        rho = DensityMatrixSimulator(target).evolve(circuit)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() > -1e-9

    def test_noise_reduces_hellinger_fidelity(self):
        target = spin_qubit_target(3)
        circuit = QuantumCircuit(3)
        # Long idle on qubit 2 while (0, 1) are busy, plus several 2q gates.
        circuit.h(0)
        for _ in range(6):
            circuit.cz(0, 1)
        circuit.cz(1, 2)
        result = DensityMatrixSimulator(target).run(circuit)
        assert result.hellinger_fidelity < 1.0
        assert result.total_idle_time > 0

    def test_idle_noise_toggle(self):
        target = spin_qubit_target(3)
        circuit = QuantumCircuit(3)
        circuit.h(0)
        for _ in range(6):
            circuit.cz(0, 1)
        circuit.cz(1, 2)
        with_idle = DensityMatrixSimulator(target, include_idle_noise=True).run(circuit)
        without_idle = DensityMatrixSimulator(target, include_idle_noise=False).run(circuit)
        assert with_idle.hellinger_fidelity <= without_idle.hellinger_fidelity + 1e-12

    def test_lower_gate_fidelity_lowers_result_quality(self):
        good = spin_qubit_target(2, "D0")
        bad = Target(
            name="bad",
            num_qubits=2,
            single_qubit_gates=GateProperties(30.0, 0.999),
            two_qubit_gates={"cz": GateProperties(152.0, 0.9), "cz_d": GateProperties(67.0, 0.9),
                             "crot": GateProperties(660.0, 0.9), "swap_d": GateProperties(19.0, 0.9),
                             "swap_c": GateProperties(89.0, 0.9)},
            coupling_map=[(0, 1)],
            t1=2.9e6,
            t2=2900.0,
        )
        # Bell-state preparation (CX = H CZ H on the target qubit): the ideal
        # distribution is peaked on {00, 11}, so depolarizing errors visibly
        # reduce the Hellinger fidelity.
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cz(0, 1).h(1)
        fidelity_good = DensityMatrixSimulator(good).run(circuit).hellinger_fidelity
        fidelity_bad = DensityMatrixSimulator(bad).run(circuit).hellinger_fidelity
        assert fidelity_bad < fidelity_good
