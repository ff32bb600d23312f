"""Gate library with exact unitary matrices.

A :class:`Gate` is an immutable description of a quantum operation: a name,
the number of qubits it acts on, an optional parameter list and its unitary
matrix.  Hardware-specific realizations of the same unitary (for example the
adiabatic and diabatic CZ of the spin-qubit platform, or the direct and
composite swap) share a matrix but carry different names, so that cost
models can attach distinct fidelities and durations to them.

The parameter-free builders (``h()``, ``cz()``, ...) are cached: every call
returns the same frozen instance, which is safe because gates are immutable.

All matrices are given in little-endian convention: for a two-qubit gate
acting on (q0, q1), q0 indexes the least significant bit of the basis state.
Controlled gates take the *first* qubit of the instruction as the control.
"""

from __future__ import annotations

import cmath
import marshal
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Gate:
    """An immutable quantum gate.

    Parameters
    ----------
    name:
        Canonical lowercase gate name (e.g. ``"cx"``, ``"swap_d"``).
    num_qubits:
        Number of qubits the gate acts on.
    params:
        Tuple of real parameters (rotation angles).
    matrix:
        The unitary matrix as a nested tuple (kept hashable); use
        :meth:`to_matrix` to obtain a numpy array.
    label:
        Optional human-readable label.
    """

    name: str
    num_qubits: int
    params: Tuple[float, ...] = ()
    matrix: Tuple[Tuple[complex, ...], ...] = field(default=(), repr=False)
    label: Optional[str] = None

    def to_matrix(self) -> np.ndarray:
        """Return the gate unitary as a numpy array."""
        return np.array(self.matrix, dtype=complex)

    def inverse(self) -> "Gate":
        """Return the adjoint gate."""
        return adjoint(self)

    def with_name(self, name: str) -> "Gate":
        """Return a copy of this gate under a different name (same unitary)."""
        return Gate(name, self.num_qubits, self.params, self.matrix, self.label)

    def to_dict(self) -> dict:
        """JSON-serializable form; exact — floats round-trip bit-identically.

        A gate that ``build_gate(name, *params)`` rebuilds bit for bit
        (params and every matrix entry, signed zeros included) travels as
        ``{"name", "params"}``.  Any other gate — adjoints, ``identity(2)``,
        custom matrices — embeds its matrix with complex entries as
        ``[real, imag]`` pairs, so the payload survives
        ``json.dumps``/``loads`` without custom encoders.  ``"label"`` is
        present only when set.
        """
        if _rebuilds_exactly(self):
            payload = {"name": self.name, "params": list(self.params)}
        else:
            payload = {
                "name": self.name,
                "num_qubits": self.num_qubits,
                "params": list(self.params),
                "matrix": [
                    [[entry.real, entry.imag] for entry in row] for row in self.matrix
                ],
            }
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Gate":
        """Inverse of :meth:`to_dict`; also accepts the full form for every gate."""
        params = tuple(float(p) for p in payload["params"])
        label = payload.get("label")
        if "matrix" not in payload:
            gate = _rebuild(payload["name"], _bits(params))
            return gate if label is None else replace(gate, label=label)
        return Gate(
            name=payload["name"],
            num_qubits=int(payload["num_qubits"]),
            params=params,
            matrix=tuple(
                tuple(complex(entry[0], entry[1]) for entry in row)
                for row in payload["matrix"]
            ),
            label=label,
        )

    def __deepcopy__(self, memo) -> "Gate":
        # Frozen and built from immutables only: a copy could never differ.
        return self

    def __repr__(self) -> str:
        if self.params:
            rendered = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({rendered})"
        return self.name


def _bits(value) -> bytes:
    """The IEEE-754 bytes of a (nested) tuple of floats or complex numbers.

    Marshal format 2 writes every float as its eight bytes and never
    back-references, so equal bytes mean bit-identical values — unlike
    ``==``, which treats ``0.0`` and ``-0.0`` as equal.
    """
    return marshal.dumps(value, 2)


@lru_cache(maxsize=4096)
def _rebuild(name: str, param_bits: bytes) -> Gate:
    """``build_gate`` memoized on the params' bit patterns."""
    return build_gate(name, *marshal.loads(param_bits))


def _rebuilds_exactly(gate: Gate) -> bool:
    """Whether ``build_gate(gate.name, *gate.params)`` is ``gate`` bit for bit."""
    if gate.name not in GATE_BUILDERS:
        return False
    try:
        param_bits = _bits(gate.params)
        built = _rebuild(gate.name, param_bits)
        return built is gate or (
            built.num_qubits == gate.num_qubits
            and _bits(built.params) == param_bits
            and _bits(built.matrix) == _bits(gate.matrix)
        )
    except (TypeError, ValueError, OverflowError):
        # Params the builder rejects, or values marshal cannot encode
        # (numpy scalars): keep the full form.
        return False


def _freeze(matrix: np.ndarray) -> Tuple[Tuple[complex, ...], ...]:
    # ``tolist`` yields Python complex values bit-identical to ``complex(e)``.
    return tuple(map(tuple, matrix.tolist()))


def _gate(name: str, matrix: np.ndarray, params: Sequence[float] = ()) -> Gate:
    matrix = np.asarray(matrix, dtype=complex)
    dimension = matrix.shape[0]
    num_qubits = int(round(math.log2(dimension)))
    if 2**num_qubits != dimension or matrix.shape != (dimension, dimension):
        raise ValueError(f"matrix of gate {name!r} has invalid shape {matrix.shape}")
    return Gate(name, num_qubits, tuple(float(p) for p in params), _freeze(matrix))


def adjoint(gate: Gate) -> Gate:
    """Return the Hermitian adjoint of a gate (named ``<name>_dg``)."""
    matrix = gate.to_matrix().conj().T
    name = gate.name[:-3] if gate.name.endswith("_dg") else gate.name + "_dg"
    return _gate(name, matrix, tuple(-p for p in gate.params))


# ----------------------------------------------------------------------
# Single-qubit gates
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def identity(num_qubits: int = 1) -> Gate:
    """Identity gate on ``num_qubits`` qubits."""
    return _gate("id", np.eye(2**num_qubits))


@lru_cache(maxsize=None)
def x() -> Gate:
    """Pauli X."""
    return _gate("x", np.array([[0, 1], [1, 0]]))


@lru_cache(maxsize=None)
def y() -> Gate:
    """Pauli Y."""
    return _gate("y", np.array([[0, -1j], [1j, 0]]))


@lru_cache(maxsize=None)
def z() -> Gate:
    """Pauli Z."""
    return _gate("z", np.array([[1, 0], [0, -1]]))


@lru_cache(maxsize=None)
def h() -> Gate:
    """Hadamard."""
    return _gate("h", np.array([[1, 1], [1, -1]]) / math.sqrt(2))


@lru_cache(maxsize=None)
def s() -> Gate:
    """Phase gate S = sqrt(Z)."""
    return _gate("s", np.array([[1, 0], [0, 1j]]))


@lru_cache(maxsize=None)
def sdg() -> Gate:
    """Adjoint phase gate."""
    return _gate("sdg", np.array([[1, 0], [0, -1j]]))


@lru_cache(maxsize=None)
def t() -> Gate:
    """T gate (pi/8)."""
    return _gate("t", np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]))


@lru_cache(maxsize=None)
def tdg() -> Gate:
    """Adjoint T gate."""
    return _gate("tdg", np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]]))


def rx(theta: float) -> Gate:
    """Rotation around X by ``theta``."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return _gate("rx", np.array([[cos, -1j * sin], [-1j * sin, cos]]), [theta])


def ry(theta: float) -> Gate:
    """Rotation around Y by ``theta``."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return _gate("ry", np.array([[cos, -sin], [sin, cos]]), [theta])


def rz(theta: float) -> Gate:
    """Rotation around Z by ``theta``."""
    phase = cmath.exp(1j * theta / 2)
    return _gate("rz", np.array([[1 / phase, 0], [0, phase]]), [theta])


def u1(lam: float) -> Gate:
    """Diagonal phase rotation U1(lambda) = diag(1, exp(i lambda)).

    Same unitary as :func:`rz` up to a global phase, but with the qelib1
    phase convention (the |0> amplitude is untouched).
    """
    return _gate("u1", np.array([[1, 0], [0, cmath.exp(1j * lam)]]), [lam])


def u2(phi: float, lam: float) -> Gate:
    """The qelib1 U2 gate: u3(pi/2, phi, lambda)."""
    factor = 1 / math.sqrt(2)
    matrix = factor * np.array(
        [
            [1, -cmath.exp(1j * lam)],
            [cmath.exp(1j * phi), cmath.exp(1j * (phi + lam))],
        ]
    )
    return _gate("u2", matrix, [phi, lam])


@lru_cache(maxsize=None)
def sx() -> Gate:
    """Square root of X, with SX^2 = X exactly (not just up to phase)."""
    return _gate("sx", np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2)


@lru_cache(maxsize=None)
def sxdg() -> Gate:
    """Adjoint square root of X."""
    return _gate("sxdg", np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2)


def u3(theta: float, phi: float, lam: float) -> Gate:
    """General SU(2) rotation with Euler angles (theta, phi, lambda)."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    matrix = np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ]
    )
    return _gate("u3", matrix, [theta, phi, lam])


# ----------------------------------------------------------------------
# Two-qubit gates
# ----------------------------------------------------------------------
def _controlled(name: str, target_matrix: np.ndarray, params: Sequence[float] = ()) -> Gate:
    """Build a controlled gate with the first qubit as control (little-endian)."""
    matrix = np.eye(4, dtype=complex)
    # Little-endian: control is qubit 0, so control=1 states are indices 1 and 3.
    matrix[np.ix_([1, 3], [1, 3])] = target_matrix
    return _gate(name, matrix, params)


@lru_cache(maxsize=None)
def cx() -> Gate:
    """Controlled-NOT (control = first qubit)."""
    return _controlled("cx", np.array([[0, 1], [1, 0]], dtype=complex))


@lru_cache(maxsize=None)
def cy() -> Gate:
    """Controlled-Y."""
    return _controlled("cy", np.array([[0, -1j], [1j, 0]], dtype=complex))


@lru_cache(maxsize=None)
def cz() -> Gate:
    """Controlled-Z (adiabatic CZ on the spin-qubit platform)."""
    return _gate("cz", np.diag([1, 1, 1, -1]))


@lru_cache(maxsize=None)
def cz_diabatic() -> Gate:
    """Diabatic CZ: same unitary as :func:`cz`, different hardware realization."""
    return _gate("cz_d", np.diag([1, 1, 1, -1]))


def controlled_phase(theta: float) -> Gate:
    """CPHASE gate: phase ``exp(i theta)`` on the |11> state."""
    return _gate("cphase", np.diag([1, 1, 1, cmath.exp(1j * theta)]), [theta])


def crx(theta: float) -> Gate:
    """Controlled X rotation."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return _controlled(
        "crx", np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex), [theta]
    )


def cry(theta: float) -> Gate:
    """Controlled Y rotation."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return _controlled(
        "cry", np.array([[cos, -sin], [sin, cos]], dtype=complex), [theta]
    )


def crz(theta: float) -> Gate:
    """Controlled Z rotation."""
    phase = cmath.exp(1j * theta / 2)
    return _controlled(
        "crz", np.array([[1 / phase, 0], [0, phase]], dtype=complex), [theta]
    )


def crot(theta: float, phi: float = 0.0) -> Gate:
    """Conditional rotation (CROT) of the spin-qubit platform.

    Rotates the target qubit by ``theta`` around an axis in the XY plane at
    azimuthal angle ``phi`` when the control qubit is |1>.  ``crot(pi)`` is a
    CNOT up to a single-qubit phase correction on the control
    (``CNOT = (S on control) . CROT(pi)``).
    """
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    axis_rotation = np.array(
        [
            [cos, -1j * sin * cmath.exp(-1j * phi)],
            [-1j * sin * cmath.exp(1j * phi), cos],
        ],
        dtype=complex,
    )
    return _controlled("crot", axis_rotation, [theta, phi])


def CROTGate(theta: float, phi: float = 0.0) -> Gate:
    """Alias of :func:`crot` kept for API symmetry with the paper's naming."""
    return crot(theta, phi)


@lru_cache(maxsize=None)
def swap() -> Gate:
    """SWAP gate (abstract)."""
    return _gate(
        "swap",
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    )


@lru_cache(maxsize=None)
def swap_direct() -> Gate:
    """Diabatic (direct) swap realization of the spin platform (swap_d)."""
    return swap().with_name("swap_d")


@lru_cache(maxsize=None)
def swap_composite() -> Gate:
    """Composite-pulse swap realization of the spin platform (swap_c)."""
    return swap().with_name("swap_c")


@lru_cache(maxsize=None)
def iswap() -> Gate:
    """iSWAP gate."""
    return _gate(
        "iswap",
        np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
    )


def rzx(theta: float) -> Gate:
    """ZX interaction rotation exp(-i theta/2 Z (x) X) (control-first order)."""
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    # Z acts on qubit 0 (first), X on qubit 1 (second); little-endian kron order
    # places qubit 0 as the rightmost factor.
    z_matrix = np.diag([1.0, -1.0])
    x_matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    generator = np.kron(x_matrix, z_matrix)
    matrix = cos * np.eye(4) - 1j * sin * generator
    return _gate("rzx", matrix, [theta])


# ----------------------------------------------------------------------
# Builders registry (used by text serialization and random circuit generation)
# ----------------------------------------------------------------------
GATE_BUILDERS: Dict[str, Callable[..., Gate]] = {
    "id": identity,
    "x": x,
    "y": y,
    "z": z,
    "h": h,
    "s": s,
    "sdg": sdg,
    "t": t,
    "tdg": tdg,
    "sx": sx,
    "sxdg": sxdg,
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "u1": u1,
    "u2": u2,
    "u3": u3,
    "cx": cx,
    "cy": cy,
    "cz": cz,
    "cz_d": cz_diabatic,
    "cphase": controlled_phase,
    "crx": crx,
    "cry": cry,
    "crz": crz,
    "crot": crot,
    "swap": swap,
    "swap_d": swap_direct,
    "swap_c": swap_composite,
    "iswap": iswap,
    "rzx": rzx,
}


def build_gate(name: str, *params: float) -> Gate:
    """Construct a gate by name from :data:`GATE_BUILDERS`."""
    if name not in GATE_BUILDERS:
        raise KeyError(f"unknown gate {name!r}")
    return GATE_BUILDERS[name](*params)
