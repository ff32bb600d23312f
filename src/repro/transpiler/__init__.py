"""Transpiler passes: routing, block collection, translation, scheduling, costs.

These passes provide the circuit-manipulation substrate that both the
baseline adaptation techniques (Section III) and the SMT-based adaptation
(Section IV) are built on:

* :mod:`repro.transpiler.routing` -- layout + SWAP insertion so that every
  two-qubit gate acts on connected qubits (the paper uses Qiskit for this
  step before adaptation);
* :mod:`repro.transpiler.blocks` -- partitioning into two-qubit blocks and
  the block dependency graph (preprocessing step (a) of Fig. 2);
* :mod:`repro.transpiler.basis` -- direct basis translation through an
  equivalence library (the baseline adapter and the reference cost);
* :mod:`repro.transpiler.scheduling` -- ASAP scheduling, circuit duration
  and qubit idle time;
* :mod:`repro.transpiler.cost` -- fidelity / duration / idle-time cost
  analysis of a circuit on a target.

The template-optimization baseline lives in the pass pipeline
(:mod:`repro.pipeline.passes`, techniques ``template_f``/``template_r``)
because it shares the substitution-rule machinery with the SMT adapter.
"""

from repro.transpiler.routing import route_circuit, trivial_layout
from repro.transpiler.blocks import Block, collect_two_qubit_blocks, block_dependency_graph
from repro.transpiler.basis import translate_to_basis, translate_block_reference
from repro.transpiler.scheduling import ScheduledCircuit, asap_schedule
from repro.transpiler.cost import CircuitCost, analyze_cost

__all__ = [
    "route_circuit",
    "trivial_layout",
    "Block",
    "collect_two_qubit_blocks",
    "block_dependency_graph",
    "translate_to_basis",
    "translate_block_reference",
    "ScheduledCircuit",
    "asap_schedule",
    "CircuitCost",
    "analyze_cost",
]
