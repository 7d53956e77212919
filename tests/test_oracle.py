import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonec.ir import Circuit, Gate, GateKind
from zonec.oracle import (
    MAX_STATE_QUBITS,
    MAX_UNITARY_QUBITS,
    adiabatic_matrix,
    cphase_matrix,
    equiv_up_to_global_phase,
    is_unitary,
    lp_matrix,
    pauli_expectation,
    rzz_matrix,
    statevector_of,
    unitary_of,
)

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def random_circuit(rng, n, depth):
    kinds_1q = [GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ]
    kinds_2q = [GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.RZZ,
                GateKind.CPHASE, GateKind.LP]
    gates = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.5:
            kind = rng.choice(kinds_2q)
            a, b = rng.sample(range(n), 2)
            qubits = (a, b)
        else:
            kind = rng.choice(kinds_1q)
            qubits = (rng.randrange(n),)
        from zonec.ir import NUM_PARAMS

        params = tuple(rng.uniform(-math.pi, math.pi) for _ in range(NUM_PARAMS[kind]))
        gates.append(Gate(kind, qubits, params))
    return Circuit(n, tuple(gates))


class TestUnitary:
    def test_hadamard(self):
        u = unitary_of(Circuit(1, (Gate(GateKind.H, (0,)),)))
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cx_involution(self):
        c = Circuit(2, (Gate(GateKind.CX, (0, 1)),) * 2)
        assert np.allclose(unitary_of(c), np.eye(4), atol=1e-12)

    def test_cx_rz_cx_is_rzz(self):
        theta = 0.731
        c = Circuit(
            2,
            (
                Gate(GateKind.CX, (0, 1)),
                Gate(GateKind.RZ, (1,), (theta,)),
                Gate(GateKind.CX, (0, 1)),
            ),
        )
        expected = np.diag(
            np.exp(1j * np.array([-1, 1, 1, -1]) * theta / 2)
        )
        assert np.allclose(unitary_of(c), expected, atol=1e-12)

    def test_qubit_guard(self):
        with pytest.raises(ValueError):
            unitary_of(Circuit(MAX_UNITARY_QUBITS + 1))

    def test_measure_rejected(self):
        with pytest.raises(ValueError):
            unitary_of(Circuit(1, (Gate(GateKind.MEASURE, (0,)),)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 4)
        a = random_circuit(rng, n, 6)
        b = random_circuit(rng, n, 6)
        ab = Circuit(n, a.gates + b.gates)
        assert np.allclose(
            unitary_of(ab), unitary_of(b) @ unitary_of(a), atol=1e-10
        )


class TestStatevector:
    def test_empty_circuit_keeps_initial(self):
        psi = statevector_of(Circuit(3), initial=5)
        expected = np.zeros(8)
        expected[5] = 1.0
        assert np.allclose(psi, expected)

    def test_little_endian_convention(self):
        # X on qubit 0 flips the least significant bit: |000> -> |001>.
        psi = statevector_of(Circuit(3, (Gate(GateKind.X, (0,)),)))
        assert np.argmax(np.abs(psi)) == 1

    def test_ghz_state(self):
        from zonec.frontend import gen_ghz

        for chain in ("path", "fountain", "parallel"):
            psi = statevector_of(gen_ghz(3, chain=chain, measure=False))
            target = np.zeros(8, dtype=complex)
            target[0] = target[7] = 1 / np.sqrt(2)
            assert abs(abs(np.vdot(target, psi)) - 1.0) < 1e-12, chain

    def test_measure_skipped(self):
        c = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.MEASURE, (0,))))
        assert np.allclose(np.abs(statevector_of(c)) ** 2, [0.5, 0.5])

    def test_qubit_guard(self):
        with pytest.raises(ValueError):
            statevector_of(Circuit(MAX_STATE_QUBITS + 1))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 5)
        psi = statevector_of(random_circuit(rng, n, 12))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


class TestPauliExpectation:
    def test_plus_state(self):
        psi = statevector_of(Circuit(1, (Gate(GateKind.H, (0,)),)))
        assert pauli_expectation(psi, "X") == pytest.approx(1.0)
        assert pauli_expectation(psi, "Z") == pytest.approx(0.0)

    def test_bell_zz(self):
        c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1))))
        psi = statevector_of(c)
        assert pauli_expectation(psi, "ZZ") == pytest.approx(1.0)
        assert pauli_expectation(psi, "XX") == pytest.approx(1.0)


class TestConstructors:
    def test_rzz_zero_is_identity(self):
        assert np.allclose(rzz_matrix(0.0), np.eye(4), atol=1e-12)

    def test_cphase_pi_is_cz(self):
        assert np.allclose(cphase_matrix(np.pi), CZ, atol=1e-12)

    def test_lp_zero_is_cz(self):
        assert np.allclose(lp_matrix(0.0), CZ, atol=1e-12)

    @given(angles)
    def test_all_diagonal_unitary(self, g):
        for m in (rzz_matrix(g), lp_matrix(g), cphase_matrix(g), adiabatic_matrix(g, 0.3)):
            assert is_unitary(m)
            assert np.allclose(m, np.diag(np.diag(m)), atol=1e-12)


class TestEquivalence:
    @given(angles)
    def test_global_phase_invariance(self, g):
        u = rzz_matrix(g)
        assert equiv_up_to_global_phase(u, np.exp(0.321j) * u, 1e-12)

    def test_inequivalent_detected(self):
        assert not equiv_up_to_global_phase(rzz_matrix(0.3), rzz_matrix(0.9), 1e-9)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            equiv_up_to_global_phase(np.eye(2), np.eye(4), 1e-9)
