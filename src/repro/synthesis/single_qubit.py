"""Single-qubit synthesis: ZYZ Euler decomposition and 1q-run merging."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.circuits import gates as glib
from repro.circuits.circuit import QuantumCircuit


def zyz_decompose(matrix: np.ndarray, atol: float = 1e-12) -> Tuple[float, float, float, float]:
    """Decompose a 2x2 unitary as ``e^{i gamma} Rz(phi) Ry(theta) Rz(lam)``.

    Returns ``(theta, phi, lam, gamma)``.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("zyz_decompose expects a 2x2 matrix")
    determinant = np.linalg.det(matrix)
    if abs(abs(determinant) - 1.0) > 1e-8:
        raise ValueError("matrix is not unitary (|det| != 1)")
    # Normalize to SU(2).
    su2 = matrix / cmath.sqrt(determinant)
    gamma = cmath.phase(cmath.sqrt(determinant))

    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    cos_half = abs(su2[0, 0])
    sin_half = abs(su2[1, 0])
    theta = 2 * math.atan2(sin_half, cos_half)
    if abs(su2[0, 0]) > atol and abs(su2[1, 0]) > atol:
        plus = 2 * cmath.phase(su2[1, 1])
        minus = 2 * cmath.phase(su2[1, 0])
        phi = (plus + minus) / 2
        lam = (plus - minus) / 2
    elif abs(su2[0, 0]) > atol:
        # theta ~ 0: only phi + lam matters.
        phi = 2 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        # theta ~ pi: only phi - lam matters.
        phi = 2 * cmath.phase(su2[1, 0])
        lam = 0.0
    return theta, phi, lam, gamma


def u3_params(matrix: np.ndarray) -> Tuple[float, float, float, float]:
    """Return ``(theta, phi, lam, gamma)`` so that ``matrix = e^{i gamma} u3(theta, phi, lam)``."""
    theta, phi, lam, gamma = zyz_decompose(matrix)
    # u3(theta, phi, lam) = e^{i (phi + lam)/2} Rz(phi) Ry(theta) Rz(lam)
    return theta, phi, lam, gamma - (phi + lam) / 2


#: ``numpy.allclose``'s default relative tolerance; the scalar tests below
#: reproduce its rule ``|a - b| <= atol + rtol * |b|`` entry by entry.
_RTOL = 1e-5

#: A 2x2 matrix as its row-major entries ``(m00, m01, m10, m11)``.
Entries = Tuple[complex, complex, complex, complex]


@lru_cache(maxsize=None)
def _candidates() -> Tuple[Tuple[glib.Gate, Entries, int], ...]:
    """The named gates :func:`gate_from_matrix` recognizes, in test order.

    Each comes with its row-major entries and the index of its
    largest-magnitude entry (``numpy.argmax``'s choice), which
    :func:`allclose_up_to_global_phase` uses to fix the relative phase.
    """
    table = []
    for build in (glib.identity, glib.x, glib.y, glib.z, glib.h,
                  glib.s, glib.sdg, glib.t, glib.tdg):
        gate = build()
        entries = gate.matrix[0] + gate.matrix[1]
        pivot = int(np.argmax(np.abs(np.array(entries))))
        table.append((gate, entries, pivot))
    return tuple(table)


def _equal_up_to_phase(first: Entries, pivot: int, second: Entries, atol: float) -> bool:
    """Scalar :func:`allclose_up_to_global_phase` for a candidate ``first``
    whose largest entry sits at ``pivot`` (and exceeds ``atol``)."""
    if abs(second[pivot]) < atol:
        return False
    phase = second[pivot] / first[pivot]
    if not abs(abs(phase) - 1.0) <= 1e-7 + _RTOL:
        return False
    for a, b in zip(first, second):
        if not abs(a * phase - b) <= atol + _RTOL * abs(b):
            return False
    return True


def _is_global_phase(m: Entries, atol: float) -> bool:
    """True when ``m`` is ``phase * I`` (the identity included), judged as
    ``numpy.allclose(m, m[0] * I, atol=atol)`` with ``|m[0]| = 1``."""
    phase = m[0]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return (abs(m[1]) <= atol and abs(m[2]) <= atol
            and abs(m[3] - phase) <= atol + _RTOL * abs(phase))


def _is_identity(m: Entries, atol: float) -> bool:
    """``numpy.allclose(m, I, atol=atol)``."""
    return (abs(m[0] - 1.0) <= atol + _RTOL and abs(m[1]) <= atol
            and abs(m[2]) <= atol and abs(m[3] - 1.0) <= atol + _RTOL)


def _gate_from_entries(entries: Entries, atol: float) -> glib.Gate:
    for gate, reference, pivot in _candidates():
        if _equal_up_to_phase(reference, pivot, entries, atol):
            return gate
    theta, phi, lam, _ = u3_params(np.array(entries, dtype=complex).reshape(2, 2))
    return glib.u3(theta, phi, lam)


def gate_from_matrix(matrix: np.ndarray, atol: float = 1e-9):
    """Return a named gate reproducing a 2x2 unitary up to global phase.

    Simple gates (identity, Pauli, Hadamard, S, T and their adjoints) are
    recognized with the tolerance rule of
    :func:`repro.circuits.unitary.allclose_up_to_global_phase`; anything
    else becomes a ``u3`` gate.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("gate_from_matrix expects a 2x2 matrix")
    return _gate_from_entries(tuple(matrix.ravel().tolist()), atol)


def merge_single_qubit_runs(circuit: QuantumCircuit, atol: float = 1e-9) -> QuantumCircuit:
    """Merge consecutive single-qubit gates on the same qubit into one gate.

    Runs that multiply to the identity (up to global phase) are dropped
    entirely.  Multi-qubit gates are left untouched and act as barriers.
    Each pending run is a 2x2 product kept as four Python complex numbers.
    """
    merged = QuantumCircuit(circuit.num_qubits, circuit.name)
    pending: Dict[int, Entries] = {}

    def flush(qubit: int) -> None:
        entries = pending.pop(qubit, None)
        if entries is None:
            return
        if _is_identity(entries, atol) or _is_global_phase(entries, atol):
            return
        merged.append(_gate_from_entries(entries, atol), [qubit])

    for instruction in circuit.instructions:
        if len(instruction.qubits) == 1:
            qubit = instruction.qubits[0]
            (a, b), (c, d) = instruction.gate.matrix
            current = pending.get(qubit)
            if current is None:
                pending[qubit] = (a, b, c, d)
            else:
                e, f, g, h = current
                pending[qubit] = (a * e + b * g, a * f + b * h,
                                  c * e + d * g, c * f + d * h)
        else:
            for qubit in instruction.qubits:
                flush(qubit)
            merged.append(instruction.gate, instruction.qubits)
    for qubit in list(pending):
        flush(qubit)
    return merged
