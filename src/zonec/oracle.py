"""Dense reference simulator used to verify every rewrite on small instances,
and the matrix of every gate kind, the Rydberg-mediated diagonal entanglers
among them.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
basis-state index. Two-qubit matrices use the basis |00>,|01>,|10>,|11> with
the first-listed operand as the left bit. The four parametrised entangler
constructors return fresh arrays; ``gate_matrix`` shares its fixed ones, so
callers must not write to them.
"""

from __future__ import annotations

import numpy as np

from .ir import AD, CPHASE, CX, CZ, LP, MEASURE, RX, RZ, RZZ, SWAP, Circuit, Gate, H, X

MAX_UNITARY_QUBITS = 10
MAX_STATE_QUBITS = 12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rzz_matrix(gamma: float) -> np.ndarray:
    """ZZ rotation target: applies phase gamma to |01> and |10>."""
    return np.diag([1.0, np.exp(1j * gamma), np.exp(1j * gamma), 1.0])


def lp_matrix(gamma: float) -> np.ndarray:
    """Levine-Pichler gate: phase gamma on |01>,|10> and 2*gamma+pi on |11>."""
    e = np.exp(1j * gamma)
    return np.diag([1.0, e, e, np.exp(1j * (2.0 * gamma + np.pi))])


def cphase_matrix(phi: float) -> np.ndarray:
    """Controlled phase: phi on |11> only."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])


def adiabatic_matrix(phi1: float, phi2: float) -> np.ndarray:
    """Adiabatic gate: phase phi2 - 2*phi1 on |11> only.

    phi1 is set by the single-atom light shift, phi2 by the two-atom light
    shift; both exponents are imaginary (the phase-cancellation condition is
    meaningless otherwise).
    """
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * (phi2 - 2.0 * phi1))])


def equiv_up_to_global_phase(u, v, tol: float = 1e-9) -> bool:
    """True iff u = exp(i*alpha) * v for some alpha, within tol elementwise.

    alpha is extracted from the largest-magnitude element of v, which avoids
    dividing by near-zero entries.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[idx]) == 0.0:
        return bool(np.max(np.abs(u)) <= tol)
    phase = u[idx] / v[idx]
    if abs(phase) == 0.0:
        return False
    phase /= abs(phase)
    return bool(np.max(np.abs(u - phase * v)) <= tol)


def is_unitary(u, tol: float = 1e-12) -> bool:
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol)


def gate_matrix(gate: Gate) -> np.ndarray:
    k, p = gate.kind, gate.params
    if k is H:
        return _H
    if k is X:
        return _X
    if k is RX:
        t = p[0] / 2.0
        return np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]], dtype=complex
        )
    if k is RZ:
        return np.diag([np.exp(-1j * p[0] / 2.0), np.exp(1j * p[0] / 2.0)])
    if k is CX:
        return _CX
    if k is CZ:
        return _CZ
    if k is SWAP:
        return _SWAP
    if k is RZZ:
        return rzz_matrix(p[0])
    if k is CPHASE:
        return cphase_matrix(p[0])
    if k is LP:
        return lp_matrix(p[0])
    if k is AD:
        return adiabatic_matrix(p[0], p[1])
    raise ValueError(f"no matrix for {k}")


def _apply(tensor: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply a gate to the first n (qubit) axes of tensor.

    Axis n-1-q corresponds to qubit q (little-endian flat index).
    """
    mat = gate_matrix(gate)
    axes = [n - 1 - q for q in gate.qubits]
    k = len(axes)
    mat = mat.reshape((2,) * (2 * k))
    tensor = np.tensordot(mat, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(tensor, list(range(k)), axes)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (program order), n <= 10, no MEASURE."""
    n = circuit.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary_of limited to {MAX_UNITARY_QUBITS} qubits, got {n}")
    if any(g.kind is MEASURE for g in circuit.gates):
        raise ValueError("unitary_of cannot simulate MEASURE")
    dim = 2**n
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for gate in circuit.gates:
        u = _apply(u, gate, n)
    return u.reshape(dim, dim)


def statevector_of(circuit: Circuit, initial: int = 0) -> np.ndarray:
    """State after the circuit from computational basis state |initial>."""
    n = circuit.num_qubits
    if n > MAX_STATE_QUBITS:
        raise ValueError(f"statevector_of limited to {MAX_STATE_QUBITS} qubits, got {n}")
    if not 0 <= initial < 2**n:
        raise ValueError("initial basis state out of range")
    psi = np.zeros(2**n, dtype=complex)
    psi[initial] = 1.0
    psi = psi.reshape((2,) * n)
    for gate in circuit.gates:
        if gate.kind is MEASURE:
            continue
        psi = _apply(psi, gate, n)
    return psi.reshape(-1)


def pauli_expectation(state: np.ndarray, label: str) -> float:
    """<state| P |state> for a Pauli string (real part; P is Hermitian)."""
    n = int(np.log2(state.size))
    assert len(label) == n
    phi = state.reshape((2,) * n)
    _Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    _Z = np.diag([1.0, -1.0]).astype(complex)
    mats = {"X": _X, "Y": _Y, "Z": _Z}
    for q, ch in enumerate(label):
        if ch == "I":
            continue
        ax = n - 1 - q
        phi = np.moveaxis(
            np.tensordot(mats[ch], phi, axes=([1], [ax])), 0, ax
        )
    return float(np.real(np.vdot(state, phi.reshape(-1))))
