"""The process-wide KAK resynthesis memo in ``repro.core.rules``.

A block's KAK replacement depends only on its gates, so ``_kak_resynthesis``
is keyed by the block content on local qubits.  These tests pin that a warm
memo returns exactly what a cold one computes, that relabelled blocks and
both KAK rules share one entry, and that failures are never cached.
"""

import pytest

import repro.core.rules as rules_module
from repro.circuits import gates as glib
from repro.circuits import QuantumCircuit, allclose_up_to_global_phase, circuit_unitary
from repro.core import evaluate_rules, preprocess, standard_rules
from repro.core.rules import KakDecompositionRule, _kak_resynthesis
from repro.hardware import spin_qubit_target
from repro.interop import load_suite
from repro.synthesis.two_qubit import decompose_two_qubit
from repro.transpiler.blocks import Block
from repro.transpiler.routing import route_circuit


@pytest.fixture(autouse=True)
def cold_memo():
    _kak_resynthesis.cache_clear()
    yield
    _kak_resynthesis.cache_clear()


def _fields(substitutions):
    """Every field of every substitution, floats as ``float.hex``."""
    return [
        (
            s.identifier,
            s.rule_name,
            s.block_index,
            s.substituted_positions,
            [(inst.gate, inst.qubits) for inst in s.replacement],
            s.duration_delta.hex(),
            s.log_fidelity_delta.hex(),
        )
        for s in substitutions
    ]


def _suite_preprocessed():
    for entry in load_suite():
        circuit = entry.circuit()
        target = spin_qubit_target(max(2, circuit.num_qubits))
        yield entry.name, preprocess(route_circuit(circuit, target), target)


RULE_SETS = {
    "standard": standard_rules,
    "kak": lambda: [KakDecompositionRule("cz")],
    "kak_czd": lambda: [KakDecompositionRule("cz_d")],
}


@pytest.mark.parametrize("rule_set", sorted(RULE_SETS))
def test_cold_memo_equals_warm_memo_on_the_suite(rule_set):
    for name, preprocessed in _suite_preprocessed():
        _kak_resynthesis.cache_clear()
        cold = evaluate_rules(preprocessed, RULE_SETS[rule_set]())
        misses = _kak_resynthesis.cache_info().misses
        warm = evaluate_rules(preprocessed, RULE_SETS[rule_set]())
        assert _kak_resynthesis.cache_info().misses == misses, name
        assert _fields(warm) == _fields(cold), name


def test_memo_hits_equal_direct_resynthesis_across_the_suite():
    # The memo stays warm across circuits, so a key that let two different
    # blocks collide would return another block's replacement here.
    rule = KakDecompositionRule("cz_d")
    for name, preprocessed in _suite_preprocessed():
        for substitution in evaluate_rules(preprocessed, [rule]):
            block = preprocessed.blocks[substitution.block_index].block
            direct = decompose_two_qubit(circuit_unitary(block.as_circuit()))
            expected = [
                (glib.cz_diabatic() if inst.name == "cz" else inst.gate,
                 tuple(block.qubits[q] for q in inst.qubits))
                for inst in direct.instructions
            ]
            got = [(inst.gate, inst.qubits) for inst in substitution.replacement]
            assert got == expected, (name, substitution.block_index)
    assert _kak_resynthesis.cache_info().hits > 0


def _block(qubits):
    a, b = qubits
    circuit = QuantumCircuit(max(qubits) + 1)
    circuit.h(a).cx(a, b).rz(0.3, b).cx(b, a).ry(0.7, a)
    return Block(index=0, qubits=qubits, instructions=list(circuit.instructions))


def _unitary_on(instructions, qubits):
    local = QuantumCircuit(2)
    for inst in instructions:
        local.append(inst.gate, [qubits.index(q) for q in inst.qubits])
    return circuit_unitary(local)


def test_relabelled_blocks_share_one_entry_and_map_back():
    target = spin_qubit_target(6)
    rule = KakDecompositionRule("cz")
    for qubits in ((3, 5), (0, 2)):
        block = _block(qubits)
        [(positions, replacement)] = rule.find(block, target)
        assert positions == tuple(range(len(block.instructions)))
        assert {q for inst in replacement for q in inst.qubits} == set(qubits)
        assert allclose_up_to_global_phase(
            _unitary_on(replacement, qubits), _unitary_on(block.instructions, qubits), atol=1e-8
        )
    info = _kak_resynthesis.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_kak_and_kak_czd_share_one_entry():
    target = spin_qubit_target(2)
    block = _block((0, 1))
    [(_, plain)] = KakDecompositionRule("cz").find(block, target)
    [(_, diabatic)] = KakDecompositionRule("cz_d").find(block, target)
    assert _kak_resynthesis.cache_info().currsize == 1
    two_qubit = lambda replacement: [inst.name for inst in replacement if len(inst.qubits) == 2]
    assert set(two_qubit(plain)) == {"cz"}
    assert set(two_qubit(diabatic)) == {"cz_d"}
    assert len(two_qubit(plain)) == len(two_qubit(diabatic))
    assert [inst.qubits for inst in plain] == [inst.qubits for inst in diabatic]


def test_failed_resynthesis_is_not_cached(monkeypatch):
    real = rules_module.decompose_two_qubit
    calls = []

    def fail_once(unitary):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return real(unitary)

    monkeypatch.setattr(rules_module, "decompose_two_qubit", fail_once)
    target = spin_qubit_target(2)
    rule = KakDecompositionRule("cz")
    block = _block((0, 1))
    with pytest.raises(RuntimeError, match="injected failure"):
        rule.find(block, target)
    assert _kak_resynthesis.cache_info().currsize == 0
    [(_, replacement)] = rule.find(block, target)
    assert len(calls) == 2
    assert replacement
    assert _kak_resynthesis.cache_info().currsize == 1
