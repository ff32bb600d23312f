"""Noiseless statevector simulation.

The default :func:`simulate_statevector` applies every gate locally with
the tensor-contraction kernels (``O(2^n)`` per 1q/2q gate); the legacy
full-matrix path is kept as :func:`simulate_statevector_dense` and serves
as the reference oracle in the kernel-equivalence tests and the perf
harness baseline.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.unitary import expand_gate_matrix
from repro.simulator.kernels import apply_gate_statevector, probabilities_vector


def _initial_state(num_qubits: int, initial_state: Optional[np.ndarray]) -> np.ndarray:
    dimension = 2**num_qubits
    if initial_state is None:
        state = np.zeros(dimension, dtype=complex)
        state[0] = 1.0
        return state
    state = np.asarray(initial_state, dtype=complex).copy()
    if state.shape != (dimension,):
        raise ValueError("initial state has the wrong dimension")
    return state


def simulate_statevector(
    circuit: QuantumCircuit, initial_state: Optional[np.ndarray] = None
) -> np.ndarray:
    """Evolve |0...0> (or ``initial_state``) through the circuit.

    Returns the final statevector in little-endian basis ordering.
    """
    state = _initial_state(circuit.num_qubits, initial_state)
    for instruction in circuit.instructions:
        state = apply_gate_statevector(
            state, instruction.gate.to_matrix(), instruction.qubits, circuit.num_qubits
        )
    return state


def simulate_statevector_dense(
    circuit: QuantumCircuit, initial_state: Optional[np.ndarray] = None
) -> np.ndarray:
    """Legacy dense-matrix statevector evolution (reference oracle).

    Expands every gate into the full ``2^n x 2^n`` register matrix before
    multiplying; asymptotically wasteful but trivially correct, so the
    equivalence tests and the perf-harness baseline compare against it.
    """
    state = _initial_state(circuit.num_qubits, initial_state)
    for instruction in circuit.instructions:
        matrix = expand_gate_matrix(
            instruction.gate.to_matrix(), instruction.qubits, circuit.num_qubits
        )
        state = matrix @ state
    return state


def _distribution_from_vector(
    probabilities: np.ndarray, num_qubits: int, cutoff: float = 1e-14
) -> Dict[str, float]:
    (support,) = np.nonzero(probabilities > cutoff)
    return {
        format(index, f"0{num_qubits}b"): float(probabilities[index])
        for index in support
    }


def statevector_probabilities(
    state: np.ndarray, num_qubits: Optional[int] = None
) -> Dict[str, float]:
    """Computational-basis outcome distribution of a statevector.

    Keys are little-endian bitstrings (qubit 0 is the rightmost character).
    """
    state = np.asarray(state, dtype=complex)
    if num_qubits is None:
        num_qubits = int(round(np.log2(state.shape[0])))
    if state.shape != (2**num_qubits,):
        raise ValueError("state dimension is not a power of two matching num_qubits")
    return _distribution_from_vector(probabilities_vector(state), num_qubits)


def circuit_probabilities(circuit: QuantumCircuit) -> Dict[str, float]:
    """Simulate a circuit noiselessly and return its outcome distribution."""
    return statevector_probabilities(simulate_statevector(circuit), circuit.num_qubits)
