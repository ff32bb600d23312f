"""The scalar 2x2 gate algebra against its numpy reference.

``gate_from_matrix`` and ``merge_single_qubit_runs`` recognize named gates,
identities and pure phases with plain complex arithmetic.  These tests pin
every such decision to the numpy form it replaced:
:func:`allclose_up_to_global_phase` for the candidate test and
``numpy.allclose`` for the identity and phase tests, including inputs
placed just inside and just outside the tolerance.  The numpy
``merge_single_qubit_runs`` is kept below as the reference for whole runs.
"""

import cmath
import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, allclose_up_to_global_phase, circuit_unitary
from repro.circuits import gates as glib
from repro.synthesis import single_qubit as sq
from repro.synthesis.single_qubit import gate_from_matrix, merge_single_qubit_runs

ATOLS = (1e-9, 1e-8)


# ----------------------------------------------------------------------
# The numpy reference (the implementation the scalar path replaced)
# ----------------------------------------------------------------------
REFERENCE_CANDIDATES = (glib.identity, glib.x, glib.y, glib.z, glib.h,
                        glib.s, glib.sdg, glib.t, glib.tdg)


def reference_gate_from_matrix(matrix, atol=1e-9):
    for build in REFERENCE_CANDIDATES:
        candidate = build()
        if allclose_up_to_global_phase(candidate.to_matrix(), matrix, atol=atol):
            return candidate
    theta, phi, lam, _ = sq.u3_params(matrix)
    return glib.u3(theta, phi, lam)


def reference_is_global_phase(matrix, atol):
    phase = matrix[0, 0]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.allclose(matrix, phase * np.eye(2), atol=atol))


def reference_merge(circuit, atol=1e-9):
    merged = QuantumCircuit(circuit.num_qubits, circuit.name)
    pending = {}

    def flush(qubit):
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        if np.allclose(matrix, np.eye(2), atol=atol) or reference_is_global_phase(
            matrix, atol
        ):
            return
        merged.append(reference_gate_from_matrix(matrix, atol), [qubit])

    for instruction in circuit.instructions:
        if len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            current = pending.get(qubit, np.eye(2, dtype=complex))
            pending[qubit] = instruction.gate.to_matrix() @ current
        else:
            for qubit in instruction.qubits:
                flush(qubit)
            merged.append(instruction.gate, instruction.qubits)
    for qubit in list(pending):
        flush(qubit)
    return merged


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def haar_unitary(rng):
    """A Haar-random 2x2 unitary (QR of a complex Ginibre matrix)."""
    ginibre = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(ginibre)
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def entries(matrix):
    return tuple(np.asarray(matrix, dtype=complex).ravel().tolist())


def scalar_verdicts(matrix, atol):
    flat = entries(matrix)
    return [sq._equal_up_to_phase(reference, pivot, flat, atol)
            for _, reference, pivot in sq._candidates()]


def reference_verdicts(matrix, atol):
    return [allclose_up_to_global_phase(gate.to_matrix(), matrix, atol=atol)
            for gate, _, _ in sq._candidates()]


CANDIDATE_NAMES = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"]


def test_candidate_table_is_the_named_gates():
    gates = [gate for gate, _, _ in sq._candidates()]
    assert [gate.name for gate in gates] == CANDIDATE_NAMES
    for gate, reference, pivot in sq._candidates():
        assert reference == entries(gate.to_matrix())
        assert pivot == int(np.argmax(np.abs(gate.to_matrix())))


# ----------------------------------------------------------------------
# Candidate test vs allclose_up_to_global_phase
# ----------------------------------------------------------------------
@pytest.mark.parametrize("atol", ATOLS)
def test_haar_random_unitaries_agree(atol):
    rng = np.random.default_rng(11)
    for _ in range(300):
        matrix = haar_unitary(rng)
        assert scalar_verdicts(matrix, atol) == reference_verdicts(matrix, atol)
        assert gate_from_matrix(matrix, atol).name == "u3"


@pytest.mark.parametrize("atol", ATOLS)
def test_named_gates_times_random_phase_agree(atol):
    rng = np.random.default_rng(12)
    for gate, _, _ in sq._candidates():
        for _ in range(40):
            matrix = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) * gate.to_matrix()
            verdicts = scalar_verdicts(matrix, atol)
            assert verdicts == reference_verdicts(matrix, atol)
            assert verdicts[CANDIDATE_NAMES.index(gate.name)]
            assert gate_from_matrix(matrix, atol) is gate
            assert reference_gate_from_matrix(matrix, atol) is gate


def _perturbed(gate, phase, index, size, direction):
    matrix = phase * gate.to_matrix()
    matrix.flat[index] += size * direction
    return matrix


@pytest.mark.parametrize("atol", ATOLS)
@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
def test_tolerance_edge_agrees(atol, side):
    """Perturb one non-pivot entry to ``edge * side``, where ``edge`` is the
    entry's own allclose tolerance ``atol + rtol * |b|``."""
    rng = np.random.default_rng(13)
    for gate, reference, pivot in sq._candidates():
        for index in range(4):
            if index == pivot:
                continue
            for _ in range(10):
                phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                direction = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                edge = atol + 1e-5 * abs(phase * reference[index])
                matrix = _perturbed(gate, phase, index, edge * side, direction)
                verdicts = scalar_verdicts(matrix, atol)
                assert verdicts == reference_verdicts(matrix, atol)
                assert verdicts[CANDIDATE_NAMES.index(gate.name)] == (side < 1)


@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
def test_phase_magnitude_edge_agrees(side):
    """A scaled gate is off by its phase's magnitude alone, which the
    reference judges with ``isclose(|phase|, 1, atol=1e-7)``."""
    rng = np.random.default_rng(15)
    edge = 1e-7 + 1e-5
    for gate, _, _ in sq._candidates():
        for sign in (1, -1):
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            matrix = (1 + sign * edge * side) * phase * gate.to_matrix()
            verdicts = scalar_verdicts(matrix, 1e-9)
            assert verdicts == reference_verdicts(matrix, 1e-9)
            assert verdicts[CANDIDATE_NAMES.index(gate.name)] == (side < 1)


@pytest.mark.parametrize("atol", ATOLS)
@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
def test_identity_and_phase_edges_agree(atol, side):
    rng = np.random.default_rng(14)
    for _ in range(50):
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        direction = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        # Off-diagonal leak at the edge: allclose allows exactly atol there.
        leaky = phase * np.eye(2, dtype=complex)
        leaky[0, 1] = atol * side * direction
        # |phase| off the unit circle by the edge of the phase test.
        scaled = (1 + atol * side) * phase * np.eye(2, dtype=complex)
        # Diagonal drift at allclose's identity edge, atol + rtol.
        drift = np.eye(2, dtype=complex)
        drift[1, 1] += (atol + 1e-5) * side * direction
        for matrix in (leaky, scaled, drift):
            flat = entries(matrix)
            assert sq._is_global_phase(flat, atol) == reference_is_global_phase(
                matrix, atol)
            assert sq._is_identity(flat, atol) == bool(
                np.allclose(matrix, np.eye(2), atol=atol))
        assert sq._is_global_phase(entries(leaky), atol) == (side < 1)
        assert sq._is_global_phase(entries(scaled), atol) == (side < 1)
        assert sq._is_identity(entries(drift), atol) == (side < 1)


def test_gate_from_matrix_rejects_non_2x2():
    with pytest.raises(ValueError):
        gate_from_matrix(np.eye(4))


# ----------------------------------------------------------------------
# Whole runs: scalar merge vs the numpy reference merge
# ----------------------------------------------------------------------
ONE_QUBIT_FIXED = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"]
ONE_QUBIT_ROTATIONS = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}
TWO_QUBIT = ["cx", "cz", "swap", "iswap"]

#: Runs that multiply to the identity or to a pure phase.
CANCELLING_RUNS = [
    [("x", ()), ("x", ())],
    [("h", ()), ("h", ())],
    [("s", ()), ("sdg", ())],
    [("t", ())] * 8,
    [("sx", ()), ("sx", ()), ("x", ())],
    [("rz", (0.7,)), ("rz", (-0.7,))],
    [("rz", (2 * math.pi,))],  # -I
    [("rx", (2 * math.pi,)), ("h", ()), ("h", ())],
    [("x", ()), ("z", ()), ("x", ()), ("z", ())],  # -I
    [("u3", (0.4, 0.2, -1.1)), ("u3", (-0.4, 1.1, -0.2))],
]


def _random_circuit(rng, num_qubits, depth):
    circuit = QuantumCircuit(num_qubits, name="oracle")
    for _ in range(depth):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.15 and num_qubits > 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(glib.build_gate(str(rng.choice(TWO_QUBIT))), [int(a), int(b)])
        elif roll < 0.35:
            run = CANCELLING_RUNS[int(rng.integers(len(CANCELLING_RUNS)))]
            for name, params in run:
                circuit.append(glib.build_gate(name, *params), [qubit])
        elif roll < 0.65:
            circuit.append(glib.build_gate(str(rng.choice(ONE_QUBIT_FIXED))), [qubit])
        else:
            name = str(rng.choice(sorted(ONE_QUBIT_ROTATIONS)))
            params = rng.uniform(-math.pi, math.pi, size=ONE_QUBIT_ROTATIONS[name])
            circuit.append(glib.build_gate(name, *params), [qubit])
    return circuit


def _assert_same_merge(circuit, atol=1e-9):
    merged = merge_single_qubit_runs(circuit, atol)
    expected = reference_merge(circuit, atol)
    assert [(i.name, i.qubits) for i in merged] == [
        (i.name, i.qubits) for i in expected
    ]
    for got, want in zip(merged, expected):
        assert got.gate.params == pytest.approx(want.gate.params, abs=1e-9)
    assert allclose_up_to_global_phase(
        circuit_unitary(merged), circuit_unitary(circuit), atol=1e-8
    )


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_random_circuits_merge_like_reference(num_qubits):
    rng = np.random.default_rng(20 + num_qubits)
    for _ in range(60):
        _assert_same_merge(_random_circuit(rng, num_qubits, int(rng.integers(1, 30))))


@pytest.mark.parametrize("run", CANCELLING_RUNS)
def test_cancelling_runs_vanish(run):
    circuit = QuantumCircuit(2)
    circuit.h(1)
    for name, params in run:
        circuit.append(glib.build_gate(name, *params), [0])
    circuit.cx(0, 1)
    _assert_same_merge(circuit)
    assert [i.name for i in merge_single_qubit_runs(circuit)] == ["h", "cx"]


def test_named_products_are_recognized():
    """Runs whose product is a named gate (up to phase) merge to that gate."""
    cases = {
        "z": [("s", ()), ("s", ())],
        "s": [("t", ()), ("t", ())],
        "x": [("h", ()), ("z", ()), ("h", ())],
        "y": [("x", ()), ("z", ())],
        "sdg": [("tdg", ()), ("tdg", ())],
        "h": [("rz", (math.pi,)), ("ry", (math.pi / 2,))],
    }
    for name, run in cases.items():
        circuit = QuantumCircuit(1)
        for gate_name, params in run:
            circuit.append(glib.build_gate(gate_name, *params), [0])
        _assert_same_merge(circuit)
        assert [i.name for i in merge_single_qubit_runs(circuit)] == [name]
