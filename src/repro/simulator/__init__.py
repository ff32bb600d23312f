"""Quantum circuit simulation with and without noise.

Two simulators are provided:

* :func:`simulate_statevector` -- exact, noiseless statevector evolution
  (used for the ideal reference distribution);
* :class:`DensityMatrixSimulator` -- density-matrix evolution with a
  depolarizing channel after every gate (strength matched to the gate
  fidelity of the target) and amplitude/phase damping applied to idle
  qubits for the scheduled idle durations (T1/T2 thermal relaxation).

The noisy model mirrors Section V.B of the paper: "errors incurred by a
depolarization channel that corresponds to the individual gate fidelities
and thermal relaxation that corresponds to the qubit idle time".
:func:`hellinger_fidelity` compares the resulting measurement
distributions.
"""

from repro.simulator.statevector import (
    circuit_probabilities,
    simulate_statevector,
    simulate_statevector_dense,
    statevector_probabilities,
)
from repro.simulator.density import DensityMatrixSimulator, NoisySimulationResult
from repro.simulator.kernels import (
    apply_gate_statevector,
    apply_kraus_density,
    apply_unitary_density,
    sample_counts,
)
from repro.simulator.noise import (
    amplitude_damping_kraus,
    depolarizing_kraus,
    depolarizing_strength_for_fidelity,
    phase_damping_kraus,
    thermal_relaxation_kraus,
)
from repro.simulator.metrics import hellinger_distance, hellinger_fidelity, total_variation_distance

__all__ = [
    "simulate_statevector",
    "simulate_statevector_dense",
    "circuit_probabilities",
    "statevector_probabilities",
    "apply_gate_statevector",
    "apply_unitary_density",
    "apply_kraus_density",
    "sample_counts",
    "DensityMatrixSimulator",
    "NoisySimulationResult",
    "depolarizing_kraus",
    "depolarizing_strength_for_fidelity",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "thermal_relaxation_kraus",
    "hellinger_distance",
    "hellinger_fidelity",
    "total_variation_distance",
]
