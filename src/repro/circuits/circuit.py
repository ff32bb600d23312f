"""The :class:`QuantumCircuit` container and its instructions.

A circuit is an ordered list of :class:`Instruction` objects (gate plus the
qubits it acts on).  Convenience methods mirror the usual quantum-SDK
surface (``circuit.h(0)``, ``circuit.cx(0, 1)``, ...), and circuits support
composition, inversion, slicing by qubit pair and a plain-text dump used in
examples and golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuits import gates as glib
from repro.circuits.gates import Gate


@dataclass(frozen=True)
class Instruction:
    """A gate applied to a specific tuple of qubits."""

    gate: Gate
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.num_qubits:
            raise ValueError(
                f"gate {self.gate.name} acts on {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in instruction: {self.qubits}")

    @property
    def name(self) -> str:
        """The gate name."""
        return self.gate.name

    def to_dict(self) -> dict:
        """JSON-serializable form (see :meth:`Gate.to_dict`)."""
        return {"gate": self.gate.to_dict(), "qubits": list(self.qubits)}

    @staticmethod
    def from_dict(payload: dict) -> "Instruction":
        """Inverse of :meth:`to_dict`."""
        return Instruction(
            Gate.from_dict(payload["gate"]),
            tuple(int(q) for q in payload["qubits"]),
        )

    def __deepcopy__(self, memo) -> "Instruction":
        # A frozen gate on a tuple of ints: a copy could never differ.
        return self

    def __repr__(self) -> str:
        qubits = ", ".join(str(q) for q in self.qubits)
        return f"{self.gate!r} q[{qubits}]"


class QuantumCircuit:
    """An ordered sequence of gate instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------------
    # Generic appends
    # ------------------------------------------------------------------
    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` acting on ``qubits``; returns self for chaining."""
        return self._push(Instruction(gate, tuple(int(q) for q in qubits)))

    def _push(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a built instruction after checking its qubits are in range."""
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )
        self.instructions.append(instruction)
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append already-built instructions."""
        for instruction in instructions:
            self.append(instruction.gate, instruction.qubits)
        return self

    def compose(self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append another circuit, optionally remapping its qubits."""
        mapping = list(range(other.num_qubits)) if qubits is None else list(qubits)
        if len(mapping) != other.num_qubits:
            raise ValueError("qubit mapping must cover the composed circuit")
        for instruction in other.instructions:
            self.append(instruction.gate, [mapping[q] for q in instruction.qubits])
        return self

    # ------------------------------------------------------------------
    # Named gate helpers
    # ------------------------------------------------------------------
    def id(self, qubit: int) -> "QuantumCircuit":
        """Append an identity gate."""
        return self.append(glib.identity(), [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-X gate."""
        return self.append(glib.x(), [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-Y gate."""
        return self.append(glib.y(), [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        """Append a Pauli-Z gate."""
        return self.append(glib.z(), [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        """Append a Hadamard gate."""
        return self.append(glib.h(), [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        """Append an S gate."""
        return self.append(glib.s(), [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Append an S-dagger gate."""
        return self.append(glib.sdg(), [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        """Append a T gate."""
        return self.append(glib.t(), [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """Append a T-dagger gate."""
        return self.append(glib.tdg(), [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Append a square-root-of-X gate."""
        return self.append(glib.sx(), [qubit])

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        """Append an adjoint square-root-of-X gate."""
        return self.append(glib.sxdg(), [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append an X rotation."""
        return self.append(glib.rx(theta), [qubit])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Y rotation."""
        return self.append(glib.ry(theta), [qubit])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Append a Z rotation."""
        return self.append(glib.rz(theta), [qubit])

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Append a diagonal phase rotation."""
        return self.append(glib.u1(lam), [qubit])

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Append a qelib1 U2 gate."""
        return self.append(glib.u2(phi, lam), [qubit])

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Append a general single-qubit rotation."""
        return self.append(glib.u3(theta, phi, lam), [qubit])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Append a CNOT gate."""
        return self.append(glib.cx(), [control, target])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Append a controlled-Y gate."""
        return self.append(glib.cy(), [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Append a CZ gate."""
        return self.append(glib.cz(), [control, target])

    def cphase(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Append a controlled-phase gate."""
        return self.append(glib.controlled_phase(theta), [control, target])

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Append a controlled X rotation."""
        return self.append(glib.crx(theta), [control, target])

    def crot(self, theta: float, control: int, target: int, phi: float = 0.0) -> "QuantumCircuit":
        """Append a conditional rotation (CROT) gate."""
        return self.append(glib.crot(theta, phi), [control, target])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Append a SWAP gate."""
        return self.append(glib.swap(), [qubit_a, qubit_b])

    def iswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Append an iSWAP gate."""
        return self.append(glib.iswap(), [qubit_a, qubit_b])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def count_ops(self) -> dict:
        """Return a histogram of gate names."""
        counts: dict = {}
        for instruction in self.instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def two_qubit_gate_count(self) -> int:
        """Return the number of multi-qubit gates."""
        return sum(1 for instruction in self.instructions if len(instruction.qubits) >= 2)

    def depth(self) -> int:
        """Return the circuit depth (longest path in gate layers)."""
        frontier = [0] * self.num_qubits
        for instruction in self.instructions:
            layer = max(frontier[q] for q in instruction.qubits) + 1
            for qubit in instruction.qubits:
                frontier[qubit] = layer
        return max(frontier, default=0)

    def qubits_used(self) -> Tuple[int, ...]:
        """Return the sorted tuple of qubits touched by at least one gate."""
        used = set()
        for instruction in self.instructions:
            used.update(instruction.qubits)
        return tuple(sorted(used))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self) -> "QuantumCircuit":
        """Return a shallow copy (instructions are immutable)."""
        duplicate = QuantumCircuit(self.num_qubits, self.name)
        duplicate.instructions = list(self.instructions)
        return duplicate

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (reversed order, adjoint gates)."""
        inverted = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for instruction in reversed(self.instructions):
            inverted.append(instruction.gate.inverse(), instruction.qubits)
        return inverted

    def remapped(self, mapping: Sequence[int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with qubit ``q`` relabeled to ``mapping[q]``."""
        target_size = num_qubits if num_qubits is not None else self.num_qubits
        remapped = QuantumCircuit(target_size, self.name)
        for instruction in self.instructions:
            remapped.append(instruction.gate, [mapping[q] for q in instruction.qubits])
        return remapped

    # ------------------------------------------------------------------
    # Text rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Return a line-per-instruction plain-text dump of the circuit."""
        lines = [f"circuit {self.name} qubits={self.num_qubits}"]
        for instruction in self.instructions:
            qubits = " ".join(str(q) for q in instruction.qubits)
            if instruction.gate.params:
                params = ",".join(f"{p:.12g}" for p in instruction.gate.params)
                lines.append(f"  {instruction.name}({params}) {qubits}")
            else:
                lines.append(f"  {instruction.name} {qubits}")
        return "\n".join(lines)

    @staticmethod
    def from_text(text: str) -> "QuantumCircuit":
        """Parse the format produced by :meth:`to_text`."""
        lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
        header = lines[0].split()
        if header[0] != "circuit":
            raise ValueError("missing circuit header line")
        num_qubits = int(header[-1].split("=")[1])
        name = header[1] if len(header) > 2 else "circuit"
        circuit = QuantumCircuit(num_qubits, name)
        for line in lines[1:]:
            head, *qubit_tokens = line.split()
            if "(" in head:
                gate_name, param_text = head.split("(", 1)
                params = [float(p) for p in param_text.rstrip(")").split(",") if p]
            else:
                gate_name, params = head, []
            circuit.append(glib.build_gate(gate_name, *params), [int(q) for q in qubit_tokens])
        return circuit

    # ------------------------------------------------------------------
    # Exact serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Exact JSON-serializable form, including custom-gate matrices.

        Unlike :meth:`to_text` (which re-derives gates by name through the
        builder table and rounds parameters for display), every gate goes
        through :meth:`Gate.to_dict`: builder gates as name and exact params,
        all others with their matrix.  The form round-trips bit-identically
        through :meth:`from_dict` — which is what the persistent result
        store of :mod:`repro.service` requires.
        """
        return {
            "num_qubits": self.num_qubits,
            "name": self.name,
            "instructions": [inst.to_dict() for inst in self.instructions],
        }

    @staticmethod
    def from_dict(payload: dict) -> "QuantumCircuit":
        """Inverse of :meth:`to_dict`."""
        circuit = QuantumCircuit(int(payload["num_qubits"]), payload.get("name", "circuit"))
        for entry in payload["instructions"]:
            circuit._push(Instruction.from_dict(entry))
        return circuit

    def __repr__(self) -> str:
        return f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, gates={len(self)})"
