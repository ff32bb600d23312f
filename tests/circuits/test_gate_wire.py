"""The compact gate wire form: exact round trips and shared immutable copies.

A gate that its builder rebuilds bit for bit travels as name + params;
every other gate keeps its embedded matrix.  Either way ``to_dict`` →
``json`` → ``from_dict`` must reproduce every param and matrix entry
bit for bit — compared with ``float.hex``, because ``==`` treats ``0.0``
and ``-0.0`` as equal.
"""

import copy
import json
import math
import random

import numpy as np
import pytest

import repro
from repro.api.cache import CompilationCache
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import GATE_BUILDERS, Gate, adjoint, build_gate, identity, rz
from repro.core.adapter import AdaptationResult
from repro.hardware import spin_qubit_target
from repro.synthesis.single_qubit import gate_from_matrix
from repro.workloads import random_template_circuit

#: Parameter arities of every builder (probed once at import).
ARITIES = {}
for _name, _builder in GATE_BUILDERS.items():
    for _arity in range(4):
        try:
            _builder(*([0.5] * _arity))
        except TypeError:
            continue
        ARITIES[_name] = _arity
        break


def bits(gate: Gate):
    """Every float of a gate as ``float.hex`` (signed zeros distinct)."""
    return (
        gate.name,
        gate.num_qubits,
        [p.hex() for p in gate.params],
        [(e.real.hex(), e.imag.hex()) for row in gate.matrix for e in row],
        gate.label,
    )


def round_trip(gate: Gate) -> Gate:
    return Gate.from_dict(json.loads(json.dumps(gate.to_dict())))


def test_every_builder_round_trips_compactly_over_random_params():
    rng = random.Random(7)
    for name, arity in sorted(ARITIES.items()):
        for _ in range(20):
            gate = build_gate(name, *(rng.uniform(-7.0, 7.0) for _ in range(arity)))
            payload = gate.to_dict()
            assert set(payload) == {"name", "params"}, name
            assert bits(round_trip(gate)) == bits(gate)


def test_negative_zero_params_decode_after_positive_zero_ones():
    for name, arity in sorted(ARITIES.items()):
        if arity == 0:
            continue
        positive = build_gate(name, *([0.0] * arity))
        negative = build_gate(name, *([-0.0] * arity))
        # Encode and decode +0.0 first, so any cache keyed by value
        # equality would now answer -0.0 with the +0.0 gate.
        assert bits(round_trip(positive)) == bits(positive)
        decoded = round_trip(negative)
        assert decoded.params[0].hex() == "-0x0.0p+0"
        assert bits(decoded) == bits(negative)


@pytest.mark.parametrize("gate", [
    identity(2),
    adjoint(rz(0.3)),
    adjoint(build_gate("crot", 1.1, -0.4)),
    gate_from_matrix(np.array([[1, 1], [1, -1]]) / math.sqrt(2)),
    gate_from_matrix(np.array([[0.6, 0.8j], [0.8j, 0.6]])),
    Gate("custom", 1, (), ((0j, 1 + 0j), (1 + 0j, -0.0 + 0j))),
], ids=["identity2", "rz_dg", "crot_dg", "recognised_h", "u3", "custom"])
def test_non_builder_and_derived_gates_round_trip(gate):
    assert bits(round_trip(gate)) == bits(gate)


def test_non_builder_gates_keep_the_matrix_form():
    for gate in (identity(2), adjoint(rz(0.3)), Gate("custom", 1, (), ((1 + 0j, 0j), (0j, 1 + 0j)))):
        assert "matrix" in gate.to_dict()


def test_labels_round_trip_in_both_forms():
    for gate in (Gate("rz", 1, rz(0.2).params, rz(0.2).matrix, label="phase"),
                 Gate("id", 2, (), identity(2).matrix, label="wait")):
        payload = gate.to_dict()
        assert payload["label"] == gate.label
        assert bits(round_trip(gate)) == bits(gate)
    assert "label" not in rz(0.2).to_dict()


def test_a_builder_named_gate_one_ulp_off_keeps_the_matrix_form():
    exact = rz(0.3)
    (a, b), (c, d) = exact.matrix
    nudged = complex(math.nextafter(a.real, 2.0), a.imag)
    gate = Gate("rz", 1, exact.params, ((nudged, b), (c, d)))
    payload = gate.to_dict()
    assert "matrix" in payload
    assert bits(round_trip(gate)) == bits(gate)


def test_a_builder_named_gate_with_a_flipped_zero_sign_keeps_the_matrix_form():
    exact = build_gate("cz")
    rows = [list(row) for row in exact.matrix]
    rows[0][1] = complex(-0.0, rows[0][1].imag)
    gate = Gate("cz", 2, (), tuple(map(tuple, rows)))
    assert gate == exact  # Equal by value, yet not bit for bit.
    assert "matrix" in gate.to_dict()
    assert bits(round_trip(gate)) == bits(gate)


def test_builder_params_the_builder_completes_keep_the_matrix_form():
    # crot(theta) fills in phi = 0.0, so the params alone would decode
    # to a different params tuple.
    built = build_gate("crot", 0.7)
    gate = Gate("crot", 2, (0.7,), built.matrix)
    assert "matrix" in gate.to_dict()
    assert bits(round_trip(gate)) == bits(gate)


def test_a_legacy_full_matrix_result_payload_still_decodes():
    half = 1 / math.sqrt(2)
    h_matrix = [[[half, 0.0], [half, 0.0]], [[half, 0.0], [-half, 0.0]]]
    cz_matrix = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
    cz_matrix[3][3] = [-1.0, 0.0]
    payload = json.loads(json.dumps({
        "technique": "direct",
        "adapted_circuit": {
            "num_qubits": 2,
            "name": "legacy",
            "instructions": [
                {"gate": {"name": "h", "num_qubits": 1, "params": [],
                          "matrix": h_matrix, "label": None}, "qubits": [0]},
                {"gate": {"name": "cz", "num_qubits": 2, "params": [],
                          "matrix": cz_matrix, "label": None}, "qubits": [0, 1]},
                {"gate": {"name": "rz", "num_qubits": 1, "params": [-0.0],
                          "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -0.0]]],
                          "label": "legacy"}, "qubits": [1]},
            ],
        },
        "cost": {"gate_fidelity_product": 0.99, "log_fidelity": math.log(0.99),
                 "duration": 150.0, "total_idle_time": 50.0,
                 "idle_survival_probability": 0.999, "two_qubit_gate_count": 1,
                 "gate_count": 3},
        "baseline_cost": None,
        "chosen_substitutions": [{
            "identifier": 0, "rule_name": "legacy_rule", "block_index": 0,
            "substituted_positions": [0],
            "replacement": [{"gate": {"name": "h", "num_qubits": 1, "params": [],
                                      "matrix": h_matrix, "label": None},
                             "qubits": [0]}],
            "duration_delta": -10.0, "log_fidelity_delta": 0.001,
        }],
        "objective_value": None,
        "statistics": {"kind": "legacy"},
        "report": None,
    }))
    result = AdaptationResult.from_dict(payload)
    gates = [inst.gate for inst in result.adapted_circuit.instructions]
    assert [g.name for g in gates] == ["h", "cz", "rz"]
    assert bits(gates[0]) == bits(build_gate("h"))
    assert bits(gates[1]) == bits(build_gate("cz"))
    assert gates[2].label == "legacy" and gates[2].params[0].hex() == "-0x0.0p+0"
    assert result.chosen_substitutions[0].replacement[0].gate == build_gate("h")
    # Re-encoding switches the builder gates to the compact form.
    again = result.to_dict()
    assert again["adapted_circuit"]["instructions"][0]["gate"] == {"name": "h", "params": []}
    assert bits(AdaptationResult.from_dict(json.loads(json.dumps(again)))
                .adapted_circuit.instructions[2].gate) == bits(gates[2])


def test_random_circuits_round_trip_bit_exactly():
    for seed in range(5):
        circuit = random_template_circuit(4, 30, seed=seed)
        back = QuantumCircuit.from_dict(json.loads(json.dumps(circuit.to_dict())))
        assert [(bits(i.gate), i.qubits) for i in back.instructions] == \
            [(bits(i.gate), i.qubits) for i in circuit.instructions]


def test_deepcopy_shares_gates_and_instructions():
    gate = rz(0.4)
    instruction = Instruction(gate, (0,))
    assert copy.deepcopy(gate) is gate
    assert copy.deepcopy(instruction) is instruction
    circuit = QuantumCircuit(1).append(gate, [0])
    copied = copy.deepcopy(circuit)
    assert copied is not circuit and copied.instructions is not circuit.instructions
    assert copied.instructions[0] is circuit.instructions[0]


def test_an_l1_hit_is_still_detached_from_the_cache_entry():
    circuit = random_template_circuit(3, 12, seed=1)
    target = spin_qubit_target(3)
    result = repro.compile(circuit, target, "template_f", use_cache=False)
    assert result.chosen_substitutions
    cache = CompilationCache()
    key = ("circuit", "target", "template_f", "options")
    cache.put(key, result)
    stored = json.dumps(cache.get(key).to_dict()["adapted_circuit"])
    stored_subs = [s.to_dict() for s in cache.get(key).chosen_substitutions]

    hit = cache.get(key)
    hit.adapted_circuit.append(build_gate("x"), [0])
    hit.adapted_circuit.instructions.pop(0)
    hit.chosen_substitutions[0].replacement.append(Instruction(build_gate("x"), (0,)))
    hit.chosen_substitutions.pop()
    # Mutating what was put leaves the entry unchanged too.
    result.adapted_circuit.instructions.clear()

    again = cache.get(key)
    assert json.dumps(again.to_dict()["adapted_circuit"]) == stored
    assert [s.to_dict() for s in again.chosen_substitutions] == stored_subs
