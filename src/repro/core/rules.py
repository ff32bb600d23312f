"""Substitution rules (Fig. 3) and their evaluation on a circuit.

A substitution rule knows how to find applicable sites inside a two-qubit
block and what to replace them with.  Evaluating a rule on a preprocessed
circuit yields :class:`Substitution` objects carrying the substituted gates
``ps``, the substitution gates ``gs`` and the cost deltas of Eqs. (4) and
(6): the duration / log-fidelity of the substitution gates minus that of
the (reference translation of the) substituted gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits import gates as glib
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.unitary import circuit_unitary
from repro.hardware.target import Target
from repro.synthesis.two_qubit import decompose_two_qubit
from repro.transpiler.basis import translate_instruction_to_cz
from repro.transpiler.blocks import Block
from repro.transpiler.scheduling import gate_duration, gate_fidelity
from repro.core.preprocessing import PreprocessedCircuit


@dataclass
class Substitution:
    """One applicable substitution ``s`` with its cost deltas."""

    identifier: int
    rule_name: str
    block_index: int
    substituted_positions: Tuple[int, ...]
    replacement: List[Instruction]
    duration_delta: float
    log_fidelity_delta: float

    def conflicts_with(self, other: "Substitution") -> bool:
        """Two substitutions conflict when they substitute a common gate (Eq. 1)."""
        if self.block_index != other.block_index:
            return False
        return bool(set(self.substituted_positions) & set(other.substituted_positions))

    def to_dict(self) -> dict:
        """JSON-serializable form; cost deltas round-trip exactly."""
        return {
            "identifier": self.identifier,
            "rule_name": self.rule_name,
            "block_index": self.block_index,
            "substituted_positions": list(self.substituted_positions),
            "replacement": [inst.to_dict() for inst in self.replacement],
            "duration_delta": self.duration_delta,
            "log_fidelity_delta": self.log_fidelity_delta,
        }

    @staticmethod
    def from_dict(payload: dict) -> "Substitution":
        """Inverse of :meth:`to_dict`."""
        return Substitution(
            identifier=int(payload["identifier"]),
            rule_name=payload["rule_name"],
            block_index=int(payload["block_index"]),
            substituted_positions=tuple(int(p) for p in payload["substituted_positions"]),
            replacement=[Instruction.from_dict(e) for e in payload["replacement"]],
            duration_delta=float(payload["duration_delta"]),
            log_fidelity_delta=float(payload["log_fidelity_delta"]),
        )

    def __repr__(self) -> str:
        return (
            f"Substitution(id={self.identifier}, rule={self.rule_name}, "
            f"block={self.block_index}, dD={self.duration_delta:+.0f}ns, "
            f"dlogF={self.log_fidelity_delta:+.4f})"
        )


def _reference_cost_of_instruction(
    instruction: Instruction, target: Target
) -> Tuple[float, float]:
    """(duration, log fidelity) of the reference translation of one gate."""
    translated = translate_instruction_to_cz(instruction)
    duration = sum(gate_duration(inst, target) for inst in translated)
    log_fidelity = sum(math.log(gate_fidelity(inst, target)) for inst in translated)
    return duration, log_fidelity


def _cost_of_instructions(
    instructions: Sequence[Instruction], target: Target
) -> Tuple[float, float]:
    """(duration, log fidelity) summed over native instructions."""
    duration = sum(gate_duration(inst, target) for inst in instructions)
    log_fidelity = sum(math.log(gate_fidelity(inst, target)) for inst in instructions)
    return duration, log_fidelity


class SubstitutionRule:
    """Base class: a named rule that proposes substitutions inside blocks."""

    name = "rule"

    def applies_to(self, target: Target) -> bool:
        """Whether the target supports the gates this rule introduces."""
        return True

    def find(self, block: Block, target: Target) -> List[Tuple[Tuple[int, ...], List[Instruction]]]:
        """Return (substituted positions, replacement instructions) matches."""
        raise NotImplementedError


class ConditionalRotationRule(SubstitutionRule):
    """Fig. 3b: a CNOT is one conditional rotation plus a phase correction.

    ``CNOT = (S on control) . CROT(pi)`` -- the replacement uses the native
    CROT gate of the spin platform.
    """

    name = "crot"

    def applies_to(self, target: Target) -> bool:
        return target.supports("crot")

    def find(self, block: Block, target: Target) -> List[Tuple[Tuple[int, ...], List[Instruction]]]:
        matches = []
        for position, instruction in enumerate(block.instructions):
            if instruction.name == "cx":
                control, target_qubit = instruction.qubits
                replacement = [
                    Instruction(glib.crot(math.pi), (control, target_qubit)),
                    Instruction(glib.s(), (control,)),
                ]
                matches.append(((position,), replacement))
        return matches


class DirectSwapRule(SubstitutionRule):
    """Fig. 3c: replace a SWAP with the diabatic (direct) native swap."""

    name = "swap_d"

    def applies_to(self, target: Target) -> bool:
        return target.supports("swap_d")

    def find(self, block: Block, target: Target) -> List[Tuple[Tuple[int, ...], List[Instruction]]]:
        matches = []
        for position, instruction in enumerate(block.instructions):
            if instruction.name == "swap":
                matches.append(
                    ((position,), [Instruction(glib.swap_direct(), instruction.qubits)])
                )
        return matches


class CompositeSwapRule(SubstitutionRule):
    """Fig. 3d: replace a SWAP with the composite-pulse native swap."""

    name = "swap_c"

    def applies_to(self, target: Target) -> bool:
        return target.supports("swap_c")

    def find(self, block: Block, target: Target) -> List[Tuple[Tuple[int, ...], List[Instruction]]]:
        matches = []
        for position, instruction in enumerate(block.instructions):
            if instruction.name == "swap":
                matches.append(
                    ((position,), [Instruction(glib.swap_composite(), instruction.qubits)])
                )
        return matches


class KakDecompositionRule(SubstitutionRule):
    """Fig. 3e: replace a whole two-qubit block by its KAK resynthesis.

    The replacement uses CZ (or diabatic CZ) plus single-qubit gates and is
    computed from the block's unitary matrix, so it conflicts with every
    other substitution in the block.
    """

    def __init__(self, cz_gate: str = "cz") -> None:
        if cz_gate not in ("cz", "cz_d"):
            raise ValueError("cz_gate must be 'cz' or 'cz_d'")
        self.cz_gate = cz_gate
        self.name = "kak" if cz_gate == "cz" else "kak_czd"

    def applies_to(self, target: Target) -> bool:
        return target.supports(self.cz_gate)

    def find(self, block: Block, target: Target) -> List[Tuple[Tuple[int, ...], List[Instruction]]]:
        if not block.is_two_qubit or block.two_qubit_gate_count() == 0:
            return []
        # Relabel as Block.as_circuit does: block.qubits[0] -> 0, [1] -> 1.
        local_of = {qubit: local for local, qubit in enumerate(block.qubits)}
        content = tuple(
            (inst.gate, tuple(local_of[q] for q in inst.qubits)) for inst in block.instructions
        )
        replacement: List[Instruction] = []
        for instruction in _kak_resynthesis(content):
            gate = instruction.gate
            if gate.name == "cz" and self.cz_gate == "cz_d":
                gate = glib.cz_diabatic()
            replacement.append(
                Instruction(gate, tuple(block.qubits[q] for q in instruction.qubits))
            )
        positions = tuple(range(len(block.instructions)))
        return [(positions, replacement)]


@lru_cache(maxsize=1024)
def _kak_resynthesis(
    content: Tuple[Tuple[Gate, Tuple[int, ...]], ...],
) -> Tuple[Instruction, ...]:
    """Verified KAK resynthesis of one block, given on local qubits (0, 1).

    ``content`` is the block's ``(gate, local qubits)`` sequence.  It names
    no target, rule or technique, so every KAK rule shares one entry per
    distinct block.  ``Gate`` is frozen and compares name, params, matrix
    and label, so a hit is a block whose unitary equals that of the miss
    whose decomposition passed ``decompose_two_qubit``'s verification.
    """
    local = QuantumCircuit(2)
    for gate, qubits in content:
        local.append(gate, qubits)
    return tuple(decompose_two_qubit(circuit_unitary(local)).instructions)


def standard_rules(include_kak: bool = True, kak_cz_gate: str = "cz") -> List[SubstitutionRule]:
    """The rule set of Fig. 3 used in the evaluation."""
    rules: List[SubstitutionRule] = [
        ConditionalRotationRule(),
        DirectSwapRule(),
        CompositeSwapRule(),
    ]
    if include_kak:
        rules.append(KakDecompositionRule(kak_cz_gate))
    return rules


def evaluate_rules(
    preprocessed: PreprocessedCircuit,
    rules: Optional[Sequence[SubstitutionRule]] = None,
) -> List[Substitution]:
    """Evaluate every rule on every block of a preprocessed circuit (Fig. 2b).

    Returns the full list of candidate substitutions with their Eq. (4)/(6)
    cost deltas computed against the reference translation of the gates
    they substitute.
    """
    target = preprocessed.target
    if rules is None:
        rules = standard_rules()
    substitutions: List[Substitution] = []
    for preprocessed_block in preprocessed.blocks:
        block = preprocessed_block.block
        for rule in rules:
            if not rule.applies_to(target):
                continue
            for positions, replacement in rule.find(block, target):
                substituted = [block.instructions[p] for p in positions]
                old_duration, old_log_fidelity = 0.0, 0.0
                for instruction in substituted:
                    duration, log_fidelity = _reference_cost_of_instruction(instruction, target)
                    old_duration += duration
                    old_log_fidelity += log_fidelity
                new_duration, new_log_fidelity = _cost_of_instructions(replacement, target)
                substitutions.append(
                    Substitution(
                        identifier=len(substitutions),
                        rule_name=rule.name,
                        block_index=block.index,
                        substituted_positions=tuple(positions),
                        replacement=list(replacement),
                        duration_delta=new_duration - old_duration,
                        log_fidelity_delta=new_log_fidelity - old_log_fidelity,
                    )
                )
    return substitutions
