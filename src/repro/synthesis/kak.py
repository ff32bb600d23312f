"""Two-qubit KAK (Cartan) decomposition via the magic basis.

Every two-qubit unitary U factors as::

    U = e^{i phase} (K1_q1 (x) K1_q0) . N(a, b, c) . (K2_q1 (x) K2_q0)

with single-qubit unitaries K1/K2 and the canonical interaction
``N(a, b, c) = exp(i (a XX + b YY + c ZZ))``.  The decomposition follows the
standard magic-basis procedure: conjugating by the magic basis turns local
unitaries into real orthogonal matrices and the canonical gate into a
diagonal phase matrix, so the problem reduces to the simultaneous
diagonalization of the real and imaginary parts of ``U_m^T U_m``.

The module also provides the Makhlin local invariants and Weyl coordinates
used to classify two-qubit interactions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Pauli matrices and two-qubit interaction generators (little-endian kron order:
# the SECOND tensor factor of np.kron is qubit 0).
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_XX = np.kron(_X, _X)
_YY = np.kron(_Y, _Y)
_ZZ = np.kron(_Z, _Z)

#: The magic (Bell-like) basis transformation.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / math.sqrt(2)


def canonical_gate_matrix(a: float, b: float, c: float) -> np.ndarray:
    """Return ``N(a, b, c) = exp(i (a XX + b YY + c ZZ))`` as a 4x4 matrix."""
    generator = a * _XX + b * _YY + c * _ZZ
    eigenvalues, eigenvectors = np.linalg.eigh(generator)
    return (eigenvectors * np.exp(1j * eigenvalues)) @ eigenvectors.conj().T


def makhlin_invariants(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Return the Makhlin local invariants ``(Re g1, Im g1, g2)`` of a 2q gate."""
    unitary = np.asarray(unitary, dtype=complex)
    su4 = unitary / np.linalg.det(unitary) ** 0.25
    magic_frame = MAGIC.conj().T @ su4 @ MAGIC
    m = magic_frame.T @ magic_frame
    g1 = np.trace(m) ** 2 / 16
    g2 = (np.trace(m) ** 2 - np.trace(m @ m)) / 4
    return float(g1.real), float(g1.imag), float(g2.real)


def kron_factor(unitary: np.ndarray, atol: float = 1e-9) -> Tuple[np.ndarray, np.ndarray, complex]:
    """Factor a product unitary into single-qubit parts.

    Given a 4x4 matrix equal (up to a phase) to ``kron(B, A)`` -- i.e. ``A``
    acting on qubit 0 and ``B`` on qubit 1 in little-endian convention --
    return ``(A, B, phase)`` with ``unitary = phase * kron(B, A)`` and both
    factors special-unitary.

    Raises
    ------
    ValueError
        If the matrix is not a tensor product of single-qubit operations.
    """
    unitary = np.asarray(unitary, dtype=complex)
    # Reshape into blocks: unitary[2*i + k, 2*j + l] = B[i, j] * A[k, l].
    blocks = unitary.reshape(2, 2, 2, 2)
    # Find the block with the largest norm to anchor the factorization.
    norms = np.array([[np.abs(blocks[i, :, j, :]).max() for j in range(2)] for i in range(2)])
    anchor = np.unravel_index(np.argmax(norms), norms.shape)
    a_matrix = blocks[anchor[0], :, anchor[1], :].copy()
    a_norm = np.sqrt(np.abs(np.linalg.det(a_matrix)))
    if a_norm < atol:
        raise ValueError("matrix is not a tensor product of single-qubit gates")
    a_matrix = a_matrix / np.sqrt(np.linalg.det(a_matrix) + 0j)
    a_inverse = np.linalg.inv(a_matrix)
    b_matrix = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = blocks[i, :, j, :]
            # b_ij is the coefficient of A in this block.
            b_matrix[i, j] = np.trace(block @ a_inverse) / 2
    phase = 1.0 + 0j
    det_b = np.linalg.det(b_matrix)
    if abs(det_b) < atol:
        raise ValueError("matrix is not a tensor product of single-qubit gates")
    scale = cmath.sqrt(det_b)
    b_matrix = b_matrix / scale
    phase = scale
    reconstructed = phase * np.kron(b_matrix, a_matrix)
    if not np.allclose(reconstructed, unitary, atol=max(atol, 1e-7)):
        raise ValueError("matrix is not a tensor product of single-qubit gates")
    return a_matrix, b_matrix, phase


@dataclass
class KakDecomposition:
    """Result of :func:`kak_decompose`.

    The decomposition reads (in matrix form, little-endian kron order)::

        U = e^{i phase} . kron(k1_q1, k1_q0) . N(a, b, c) . kron(k2_q1, k2_q0)
    """

    a: float
    b: float
    c: float
    k1_q0: np.ndarray
    k1_q1: np.ndarray
    k2_q0: np.ndarray
    k2_q1: np.ndarray
    phase: complex

    def canonical_matrix(self) -> np.ndarray:
        """The canonical interaction part ``N(a, b, c)``."""
        return canonical_gate_matrix(self.a, self.b, self.c)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the original unitary from the factors."""
        left = np.kron(self.k1_q1, self.k1_q0)
        right = np.kron(self.k2_q1, self.k2_q0)
        return self.phase * (left @ self.canonical_matrix() @ right)

    def interaction_strength(self) -> float:
        """Total interaction content |a| + |b| + |c| (0 for local gates)."""
        return abs(self.a) + abs(self.b) + abs(self.c)


def _simultaneous_diagonalize(m2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Find a real orthogonal P with P^T m2 P diagonal (m2 unitary symmetric)."""
    real_part = m2.real
    imag_part = m2.imag
    for _ in range(40):
        weight = rng.uniform(0.1, 2.0)
        _, candidate = np.linalg.eigh(real_part + weight * imag_part)
        check = candidate.T @ m2 @ candidate
        if np.abs(check - np.diag(np.diag(check))).max() < 1e-9:
            return candidate
    raise RuntimeError("failed to simultaneously diagonalize the magic-frame Gram matrix")


def kak_decompose(unitary: np.ndarray, atol: float = 1e-9) -> KakDecomposition:
    """Compute the KAK decomposition of a two-qubit unitary."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError("kak_decompose expects a 4x4 unitary")
    if not np.allclose(unitary @ unitary.conj().T, np.eye(4), atol=1e-7):
        raise ValueError("input matrix is not unitary")

    determinant = np.linalg.det(unitary)
    su4 = unitary * determinant ** (-0.25)
    global_phase = determinant ** 0.25

    magic_frame = MAGIC.conj().T @ su4 @ MAGIC
    m2 = magic_frame.T @ magic_frame

    rng = np.random.default_rng(2023)
    p_matrix = _simultaneous_diagonalize(m2, rng)
    if np.linalg.det(p_matrix) < 0:
        p_matrix = p_matrix.copy()
        p_matrix[:, 0] = -p_matrix[:, 0]

    diagonal = np.diag(p_matrix.T @ m2 @ p_matrix)
    angles = np.angle(diagonal) / 2.0

    # Choose the branch of each angle (theta vs theta + pi) so that the left
    # factor in the magic frame is a real matrix, column by column.
    left_columns = magic_frame @ p_matrix
    for j in range(4):
        column = left_columns[:, j] * np.exp(-1j * angles[j])
        if np.abs(column.imag).max() > 1e-7:
            angles[j] += math.pi
            column = left_columns[:, j] * np.exp(-1j * angles[j])
        if np.abs(column.imag).max() > 1e-6:
            raise RuntimeError("magic-frame factor is not real; KAK decomposition failed")
    k1_magic = (left_columns * np.exp(-1j * angles)[np.newaxis, :]).real
    # Ensure the left factor is special orthogonal by absorbing a sign into
    # the canonical part (shift one angle by pi).
    if np.linalg.det(k1_magic) < 0:
        angles[0] += math.pi
        k1_magic = k1_magic.copy()
        k1_magic[:, 0] = -k1_magic[:, 0]
    k2_magic = p_matrix.T
    # Normalize the angle sum to zero (a 2*pi shift leaves the phases unchanged).
    shift = round(float(np.sum(angles)) / (2 * math.pi))
    angles[0] -= shift * 2 * math.pi

    # Map the diagonal phases back to canonical coordinates:
    #   d0 = a - b + c, d1 = a + b - c, d2 = -a - b - c, d3 = -a + b + c
    a = float((angles[0] + angles[1]) / 2)
    b = float((angles[1] + angles[3]) / 2)
    c = float((angles[0] + angles[3]) / 2)

    k1 = MAGIC @ k1_magic @ MAGIC.conj().T
    k2 = MAGIC @ k2_magic @ MAGIC.conj().T

    k1_q0, k1_q1, phase1 = kron_factor(k1, atol)
    k2_q0, k2_q1, phase2 = kron_factor(k2, atol)

    decomposition = KakDecomposition(
        a=a,
        b=b,
        c=c,
        k1_q0=k1_q0,
        k1_q1=k1_q1,
        k2_q0=k2_q0,
        k2_q1=k2_q1,
        phase=global_phase * phase1 * phase2,
    )
    # Safety net: verify the reconstruction and fail loudly rather than return
    # a silently wrong decomposition.
    if not np.allclose(decomposition.reconstruct(), unitary, atol=1e-6):
        raise RuntimeError("KAK reconstruction failed verification")
    return decomposition


def weyl_coordinates(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Return interaction coordinates (a, b, c) folded into [0, pi/4] per axis.

    The coordinates identify the local-equivalence class of the gate up to
    the usual Weyl-chamber symmetries; they are primarily used by tests and
    by the rule engine to recognize CNOT-, iSWAP- and SWAP-like blocks.
    """
    decomposition = kak_decompose(np.asarray(unitary, dtype=complex))
    folded = []
    for angle in (decomposition.a, decomposition.b, decomposition.c):
        reduced = math.fmod(angle, math.pi / 2)
        if reduced < 0:
            reduced += math.pi / 2
        # Fold into [0, pi/4].
        if reduced > math.pi / 4:
            reduced = math.pi / 2 - reduced
        folded.append(abs(reduced))
    return tuple(sorted(folded, reverse=True))  # type: ignore[return-value]
