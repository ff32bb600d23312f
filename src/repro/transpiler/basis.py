"""Direct basis translation through an equivalence library.

"Direct Basis Translation ... translates the quantum gates from the source
basis defined by the input circuit to the target basis according to a
pre-defined equivalence library" (Section III).  For the spin-qubit target
the library replaces every non-native two-qubit gate with CZ gates plus
single-qubit gates, which is also the reference adaptation used to compute
the per-block reference costs in the preprocessing step.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from repro.circuits import gates as glib
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.hardware.target import Target
from repro.transpiler.blocks import Block


def _cx_via_cz(control: int, target: int) -> List[Instruction]:
    """CNOT = (I x H) CZ (I x H) with the Hadamards on the target qubit."""
    return [
        Instruction(glib.h(), (target,)),
        Instruction(glib.cz(), (control, target)),
        Instruction(glib.h(), (target,)),
    ]


def _cy_via_cz(control: int, target: int) -> List[Instruction]:
    """CY = (I x Sdg H) CZ (I x H S) on the target qubit."""
    return [
        Instruction(glib.sdg(), (target,)),
        Instruction(glib.h(), (target,)),
        Instruction(glib.cz(), (control, target)),
        Instruction(glib.h(), (target,)),
        Instruction(glib.s(), (target,)),
    ]


def _swap_via_cz(qubit_a: int, qubit_b: int) -> List[Instruction]:
    """SWAP as three CNOTs, each translated to CZ + Hadamards."""
    instructions: List[Instruction] = []
    instructions.extend(_cx_via_cz(qubit_a, qubit_b))
    instructions.extend(_cx_via_cz(qubit_b, qubit_a))
    instructions.extend(_cx_via_cz(qubit_a, qubit_b))
    return instructions


@lru_cache(maxsize=None)
def _iswap_local() -> Tuple[Instruction, ...]:
    """The verified KAK resynthesis of iSWAP on local qubits (0, 1), built once."""
    from repro.synthesis.two_qubit import decompose_two_qubit

    return tuple(decompose_two_qubit(glib.iswap().to_matrix()).instructions)


def _iswap_via_cz(qubit_a: int, qubit_b: int) -> List[Instruction]:
    """iSWAP through the verified KAK resynthesis (2 CZ + single-qubit gates)."""
    mapping = (qubit_a, qubit_b)
    return [
        Instruction(inst.gate, tuple(mapping[q] for q in inst.qubits))
        for inst in _iswap_local()
    ]


def _cphase_via_cz(theta: float, control: int, target: int) -> List[Instruction]:
    """Controlled-phase via two CNOTs (each a CZ + Hadamards) and Rz gates."""
    instructions = [
        Instruction(glib.rz(theta / 2), (control,)),
        Instruction(glib.rz(theta / 2), (target,)),
    ]
    instructions.extend(_cx_via_cz(control, target))
    instructions.append(Instruction(glib.rz(-theta / 2), (target,)))
    instructions.extend(_cx_via_cz(control, target))
    return instructions


def _crx_via_cz(theta: float, control: int, target: int) -> List[Instruction]:
    """Controlled-X-rotation via two CZ (standard two-CNOT construction)."""
    instructions = [
        Instruction(glib.h(), (target,)),
        Instruction(glib.rz(theta / 2), (target,)),
    ]
    instructions.extend(_cx_via_cz(control, target))
    instructions.append(Instruction(glib.rz(-theta / 2), (target,)))
    instructions.extend(_cx_via_cz(control, target))
    instructions.append(Instruction(glib.h(), (target,)))
    return instructions


def translate_instruction_to_cz(instruction: Instruction) -> List[Instruction]:
    """Translate one instruction into the CZ + SU(2) basis.

    Native single-qubit gates and CZ pass through unchanged; CX, CY, SWAP,
    iSWAP, CPHASE, CRX/CROT and RZX are rewritten; anything else raises.
    """
    name = instruction.name
    qubits = instruction.qubits
    if len(qubits) == 1 or name in ("cz", "cz_d"):
        return [instruction]
    if name == "cx":
        return _cx_via_cz(*qubits)
    if name == "cy":
        return _cy_via_cz(*qubits)
    if name in ("swap", "swap_d", "swap_c"):
        return _swap_via_cz(*qubits)
    if name == "iswap":
        return _iswap_via_cz(*qubits)
    if name == "cphase":
        return _cphase_via_cz(instruction.gate.params[0], *qubits)
    if name in ("crx", "crot"):
        theta = instruction.gate.params[0]
        if name == "crot" and len(instruction.gate.params) > 1 and abs(instruction.gate.params[1]) > 1e-12:
            raise ValueError("only CROT about the x axis can be translated directly")
        return _crx_via_cz(theta, *qubits)
    if name == "crz":
        theta = instruction.gate.params[0]
        instructions = [Instruction(glib.rz(theta / 2), (qubits[1],))]
        instructions.extend(_cx_via_cz(*qubits))
        instructions.append(Instruction(glib.rz(-theta / 2), (qubits[1],)))
        instructions.extend(_cx_via_cz(*qubits))
        return instructions
    if name == "rzx":
        theta = instruction.gate.params[0]
        instructions = [Instruction(glib.h(), (qubits[1],)), Instruction(glib.rz(theta / 2), (qubits[1],))]
        instructions.extend(_cx_via_cz(*qubits))
        instructions.append(Instruction(glib.rz(-theta / 2), (qubits[1],)))
        instructions.extend(_cx_via_cz(*qubits))
        instructions.append(Instruction(glib.h(), (qubits[1],)))
        return instructions
    raise KeyError(f"no CZ-basis translation known for gate {name!r}")


def translate_to_basis(circuit: QuantumCircuit, target: Target) -> QuantumCircuit:
    """Direct basis translation of a whole circuit to the target's CZ basis.

    Every two-qubit gate that is not native to the target is replaced by CZ
    gates and single-qubit gates; single-qubit gates are kept as-is (the
    targets support arbitrary SU(2) rotations).
    """
    translated = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_basis")
    for instruction in circuit.instructions:
        if len(instruction.qubits) >= 2 and target.supports(instruction.name):
            # Keep native gates, but the *baseline* of the paper replaces all
            # non-CZ two-qubit gates; only cz passes through here because the
            # input circuits use the IBM-like basis.
            translated.append(instruction.gate, instruction.qubits)
            continue
        for replacement in translate_instruction_to_cz(instruction):
            translated.append(replacement.gate, replacement.qubits)
    return translated


def translate_block_reference(block: Block) -> List[Instruction]:
    """Reference (baseline) translation of a block: every gate through CZ.

    This is the "naive adaptation ... used as a common reference cost" of
    the preprocessing step.
    """
    instructions: List[Instruction] = []
    for instruction in block.instructions:
        instructions.extend(translate_instruction_to_cz(instruction))
    return instructions
