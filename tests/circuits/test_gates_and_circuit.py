"""Tests for the gate library, circuit container and unitary utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    QuantumCircuit,
    allclose_up_to_global_phase,
    circuit_unitary,
    cx,
    cz,
    crot,
    h,
    instruction_unitary,
    iswap,
    process_fidelity,
    rx,
    ry,
    rz,
    s,
    swap,
    u3,
    x,
    y,
    z,
)
from repro.circuits.circuit import Instruction
from repro.circuits.dag import CircuitDag
from repro.circuits.gates import (
    GATE_BUILDERS,
    adjoint,
    build_gate,
    controlled_phase,
    crz,
    cz_diabatic,
    rzx,
    swap_composite,
    swap_direct,
)


class TestGateUnitaries:
    def test_all_builders_produce_unitaries(self):
        for name, builder in GATE_BUILDERS.items():
            gate = None
            for params in ((), (0.37,), (0.37, 0.11), (0.37, 0.11, -0.6)):
                try:
                    gate = builder(*params)
                    break
                except TypeError:
                    continue
            assert gate is not None, name
            matrix = gate.to_matrix()
            assert np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0])), name

    def test_pauli_algebra(self):
        assert np.allclose(x().to_matrix() @ x().to_matrix(), np.eye(2))
        xy = x().to_matrix() @ y().to_matrix()
        assert np.allclose(xy, 1j * z().to_matrix())

    def test_hadamard_conjugation(self):
        hm = h().to_matrix()
        assert np.allclose(hm @ z().to_matrix() @ hm, x().to_matrix())

    def test_rotation_composition(self):
        theta1, theta2 = 0.3, 1.1
        composed = rz(theta1).to_matrix() @ rz(theta2).to_matrix()
        assert np.allclose(composed, rz(theta1 + theta2).to_matrix())

    def test_u3_reduces_to_ry_and_rz(self):
        assert allclose_up_to_global_phase(
            u3(0.7, 0, 0).to_matrix(), ry(0.7).to_matrix()
        )
        assert allclose_up_to_global_phase(
            u3(0, 0, 0.9).to_matrix(), rz(0.9).to_matrix()
        )

    def test_cx_action_on_basis_states(self):
        matrix = cx().to_matrix()
        # |control=1, target=0> = index 1 (little-endian, control = qubit 0).
        state = np.zeros(4)
        state[1] = 1
        result = matrix @ state
        assert np.argmax(np.abs(result)) == 3

    def test_cz_symmetry(self):
        assert np.allclose(cz().to_matrix(), np.diag([1, 1, 1, -1]))
        assert np.allclose(cz_diabatic().to_matrix(), cz().to_matrix())
        assert cz_diabatic().name == "cz_d"

    def test_cphase_pi_is_cz(self):
        assert np.allclose(controlled_phase(math.pi).to_matrix(), cz().to_matrix())

    def test_crot_pi_is_cnot_up_to_control_phase(self):
        # CNOT = (S on control) . CROT(pi)
        correction = np.kron(np.eye(2), s().to_matrix())  # S on qubit 0 (control)
        assert np.allclose(correction @ crot(math.pi).to_matrix(), cx().to_matrix())

    def test_crz_vs_cphase(self):
        # Control is qubit 0 (little-endian), so indices 1 and 3 are affected.
        theta = 0.8
        assert allclose_up_to_global_phase(
            crz(theta).to_matrix(),
            np.diag([1, np.exp(-1j * theta / 2), 1, np.exp(1j * theta / 2)]),
        )

    def test_swap_variants_share_unitary(self):
        assert np.allclose(swap_direct().to_matrix(), swap().to_matrix())
        assert np.allclose(swap_composite().to_matrix(), swap().to_matrix())
        assert swap_direct().name == "swap_d"
        assert swap_composite().name == "swap_c"

    def test_swap_equals_three_cnots(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(1, 0).cx(0, 1)
        assert np.allclose(circuit_unitary(circuit), swap().to_matrix())

    def test_iswap_matrix(self):
        expected = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(iswap().to_matrix(), expected)

    def test_rzx_generator(self):
        theta = 0.4
        matrix = rzx(theta).to_matrix()
        assert np.allclose(matrix @ matrix.conj().T, np.eye(4))
        assert not np.allclose(matrix, np.eye(4))

    def test_adjoint_roundtrip(self):
        gate = u3(0.3, 1.2, -0.4)
        assert np.allclose(
            gate.to_matrix() @ adjoint(gate).to_matrix(), np.eye(2), atol=1e-12
        )

    def test_build_gate_by_name(self):
        assert build_gate("h").name == "h"
        assert build_gate("rz", 0.5).params == (0.5,)
        with pytest.raises(KeyError):
            build_gate("nonexistent")


class TestQelib1Gates:
    """Matrix unit tests for the qelib1 one-to-one gate set (PR 4)."""

    def test_id_is_identity(self):
        assert np.allclose(build_gate("id").to_matrix(), np.eye(2))

    def test_u1_is_pure_phase(self):
        lam = 0.73
        assert np.allclose(
            build_gate("u1", lam).to_matrix(), np.diag([1, np.exp(1j * lam)])
        )

    def test_u1_vs_rz_up_to_global_phase(self):
        lam = 1.4
        assert allclose_up_to_global_phase(
            build_gate("u1", lam).to_matrix(), rz(lam).to_matrix()
        )
        # ... but not equal as matrices: u1 leaves |0> untouched.
        assert not np.allclose(build_gate("u1", lam).to_matrix(), rz(lam).to_matrix())

    def test_u2_is_u3_at_half_pi(self):
        phi, lam = 0.3, -1.1
        assert np.allclose(
            build_gate("u2", phi, lam).to_matrix(),
            u3(math.pi / 2, phi, lam).to_matrix(),
        )

    def test_u2_zero_pi_is_hadamard(self):
        assert np.allclose(build_gate("u2", 0.0, math.pi).to_matrix(), h().to_matrix())

    def test_sx_squares_to_x_exactly(self):
        sx_matrix = build_gate("sx").to_matrix()
        assert np.allclose(sx_matrix @ sx_matrix, x().to_matrix())

    def test_sxdg_is_sx_adjoint(self):
        assert np.allclose(
            build_gate("sxdg").to_matrix(),
            build_gate("sx").to_matrix().conj().T,
        )

    def test_sx_matches_rx_up_to_global_phase(self):
        assert allclose_up_to_global_phase(
            build_gate("sx").to_matrix(), rx(math.pi / 2).to_matrix()
        )

    def test_qelib1_names_in_builders(self):
        assert {"id", "u1", "u2", "sx", "sxdg"} <= set(GATE_BUILDERS)

    def test_circuit_helpers(self):
        circuit = QuantumCircuit(1)
        circuit.sx(0).sxdg(0).u1(0.2, 0).u2(0.1, 0.3, 0)
        assert [inst.name for inst in circuit] == ["sx", "sxdg", "u1", "u2"]
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit),
            (build_gate("u2", 0.1, 0.3).to_matrix()
             @ build_gate("u1", 0.2).to_matrix()
             @ np.eye(2)),
        )


class TestQuantumCircuit:
    def test_append_and_count(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2)
        assert len(circuit) == 4
        assert circuit.count_ops() == {"h": 1, "cx": 2, "rz": 1}
        assert circuit.two_qubit_gate_count() == 2

    def test_depth(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).cx(0, 1).h(0)
        assert circuit.depth() == 3

    def test_qubit_range_checked(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.h(2)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Instruction(cx(), (1, 1))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Instruction(cx(), (0,))

    def test_inverse_is_identity(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).rz(0.7, 1).swap(0, 1)
        combined = circuit.copy().compose(circuit.inverse())
        assert allclose_up_to_global_phase(
            circuit_unitary(combined), np.eye(4)
        )

    def test_compose_with_mapping(self):
        bell = QuantumCircuit(2)
        bell.h(0).cx(0, 1)
        big = QuantumCircuit(3)
        big.compose(bell, qubits=[2, 0])
        assert big.instructions[0].qubits == (2,)
        assert big.instructions[1].qubits == (2, 0)

    def test_remap(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        remapped = circuit.remapped([1, 0])
        assert remapped.instructions[0].qubits == (1, 0)

    def test_text_roundtrip(self):
        circuit = QuantumCircuit(3, name="demo")
        circuit.h(0).cx(0, 1).rz(0.25, 2).crot(math.pi, 1, 2).swap(0, 2)
        parsed = QuantumCircuit.from_text(circuit.to_text())
        assert parsed.num_qubits == 3
        assert [inst.name for inst in parsed] == [inst.name for inst in circuit]
        assert allclose_up_to_global_phase(
            circuit_unitary(parsed), circuit_unitary(circuit)
        )

    def test_qubits_used(self):
        circuit = QuantumCircuit(4)
        circuit.h(1).cx(1, 3)
        assert circuit.qubits_used() == (1, 3)


class TestUnitaryUtilities:
    def test_instruction_unitary_embedding(self):
        instruction = Instruction(x(), (1,))
        matrix = instruction_unitary(instruction, 2)
        expected = np.kron(x().to_matrix(), np.eye(2))
        assert np.allclose(matrix, expected)

    def test_two_qubit_embedding_on_reversed_qubits(self):
        # cx with control qubit 1, target qubit 0 in a 2-qubit register.
        instruction = Instruction(cx(), (1, 0))
        matrix = instruction_unitary(instruction, 2)
        # control = qubit 1 -> indices 2, 3 flip the target bit (qubit 0).
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.allclose(matrix, expected)

    def test_circuit_unitary_bell(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        state = circuit_unitary(circuit)[:, 0]
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_global_phase_comparison(self):
        matrix = circuit_unitary(QuantumCircuit(1).h(0))
        assert allclose_up_to_global_phase(matrix, 1j * matrix)
        assert not allclose_up_to_global_phase(matrix, np.eye(2))

    def test_process_fidelity_bounds(self):
        unitary = circuit_unitary(QuantumCircuit(2).h(0).cx(0, 1))
        assert process_fidelity(unitary, unitary) == pytest.approx(1.0)
        other = circuit_unitary(QuantumCircuit(2).x(0))
        assert 0 <= process_fidelity(unitary, other) < 1


class TestCircuitDag:
    def test_layers_and_depth_agree(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).cx(0, 1).cx(1, 2).h(2)
        dag = CircuitDag(circuit)
        assert len(dag.layers()) == circuit.depth()

    def test_dependencies(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        dag = CircuitDag(circuit)
        assert dag.predecessors(1) == [0]
        assert dag.successors(1) == [2]
        assert dag.topological_order() == [0, 1, 2]

    def test_weighted_longest_path(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).h(1)
        dag = CircuitDag(circuit)
        weights = {0: 30.0, 1: 152.0, 2: 30.0}
        assert dag.longest_path_length(weights) == pytest.approx(212.0)


@settings(max_examples=30, deadline=None)
@given(
    angles=st.lists(
        st.floats(min_value=-math.pi, max_value=math.pi), min_size=1, max_size=6
    ),
    data=st.data(),
)
def test_property_circuit_inverse_cancels(angles, data):
    """Random rotation/CX circuits composed with their inverse give identity."""
    circuit = QuantumCircuit(2)
    for angle in angles:
        kind = data.draw(st.sampled_from(["rx", "ry", "rz", "cx", "cz"]))
        qubit = data.draw(st.sampled_from([0, 1]))
        if kind == "cx":
            circuit.cx(qubit, 1 - qubit)
        elif kind == "cz":
            circuit.cz(qubit, 1 - qubit)
        else:
            getattr(circuit, kind)(angle, qubit)
    total = circuit.copy().compose(circuit.inverse())
    assert allclose_up_to_global_phase(circuit_unitary(total), np.eye(4), atol=1e-7)


def _old_freeze(matrix):
    """The per-element freeze that ``_freeze`` replaced (reference)."""
    return tuple(tuple(complex(entry) for entry in row) for row in matrix)


def _hex(frozen):
    return [(e.real.hex(), e.imag.hex()) for row in frozen for e in row]


class TestBuilderCache:
    def test_parameter_free_builders_share_one_instance(self):
        assert h() is h()
        assert build_gate("cz") is cz()
        assert build_gate("swap_d") is swap_direct()
        assert swap_direct().name == "swap_d" and swap().name == "swap"

    def test_identity_cached_per_width(self):
        from repro.circuits.gates import identity

        assert identity(2) != identity(1)
        assert identity(2).num_qubits == 2 and identity(1).num_qubits == 1
        assert identity(2) is identity(2)

    def test_parametrized_builders_not_shared(self):
        assert rz(0.3) is not rz(0.3)
        assert rz(0.3) == rz(0.3)

    def test_freeze_bit_identical_to_per_element_form(self, monkeypatch):
        """Every builder, with sampled params, freezes exactly as before."""
        import repro.circuits.gates as glib

        frozen_arrays = []
        real_freeze = glib._freeze

        def spy(matrix):
            frozen = real_freeze(matrix)
            frozen_arrays.append((np.array(matrix, copy=True), frozen))
            return frozen

        monkeypatch.setattr(glib, "_freeze", spy)
        rng = np.random.default_rng(7)
        for name, builder in GATE_BUILDERS.items():
            # Bypass the cache so parameter-free builders freeze again.
            build = getattr(builder, "__wrapped__", builder)
            for arity in range(4):
                try:
                    build(*([0.1] * arity))
                    break
                except TypeError:
                    continue
            for _ in range(1 if arity == 0 else 25):
                build(*rng.uniform(-7.0, 7.0, size=arity))
        rzx_angles = [0.0, math.pi, -math.pi / 2, 1e-300, 123.456]
        for angle in rzx_angles:
            rzx(angle)
        assert len(frozen_arrays) > len(GATE_BUILDERS)
        for matrix, frozen in frozen_arrays:
            assert _hex(frozen) == _hex(_old_freeze(matrix))
            assert all(type(e) is complex for row in frozen for e in row)
