"""Independent references for the benchmark's output checks.

Nothing here calls zonec's rewrite, scheduler or cost code: the unitaries are
built from Pauli and gate matrices written out below, and the AOD order rule
is re-stated from ``arch.validate_move``'s docstring. zonec's ``oracle`` is
used by the caller only to simulate the compiled program.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import PauliInput, QaoaInput

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_PAULI = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def kron_qubits(mats) -> np.ndarray:
    """Tensor product with mats[q] acting on qubit q, qubit 0 the least
    significant bit of the basis index."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


def pauli_matrix(label: str) -> np.ndarray:
    return kron_qubits([_PAULI[c] for c in label])


def pauli_unitary(src: PauliInput) -> np.ndarray:
    """Product over terms, first term rightmost, of cos(t/2) I - i sin(t/2) P.

    A Pauli string has one nonzero per row, so P @ u is a row gather scaled
    by that entry, which keeps this at O(4^n) per term."""
    dim = 2**src.num_qubits
    rows = np.arange(dim)
    u = np.eye(dim, dtype=complex)
    for label, theta in src.terms:
        p = pauli_matrix(label)
        cols = np.argmax(np.abs(p), axis=1)
        pu = p[rows, cols][:, None] * u[cols]
        u = math.cos(theta / 2.0) * u - 1j * math.sin(theta / 2.0) * pu
    return u


def apply_1q(u: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """m acting on qubit q, applied to the rows of u."""
    dim = u.shape[0]
    t = u.reshape(dim // (2 << q), 2, 1 << q, u.shape[1])
    return np.einsum("ab,ibjc->iajc", m, t).reshape(u.shape)


def qaoa_unitary(src: QaoaInput) -> np.ndarray:
    """H on every qubit, then per layer a diagonal ZZ phase gamma*w on every
    edge whose endpoints' bits differ and RX(2*beta) on every qubit."""
    n = src.num_qubits
    index = np.arange(2**n)
    bits = [(index >> q) & 1 for q in range(n)]
    u = np.eye(2**n, dtype=complex)
    for q in range(n):
        u = apply_1q(u, _H, q)
    for gamma, beta in zip(src.gammas, src.betas):
        phase = np.zeros(2**n)
        for (a, b), w in zip(src.edges, src.weights):
            phase += gamma * w * (bits[a] != bits[b])
        u = np.exp(1j * phase)[:, None] * u
        rx = math.cos(beta) * _I - 1j * math.sin(beta) * _X
        for q in range(n):
            u = apply_1q(u, rx, q)
    return u


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-7) -> bool:
    """True iff u = exp(i*a) * v elementwise within tol, for some a."""
    if u.shape != v.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(u[idx]) < 0.5 * abs(v[idx]):
        return False
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return bool(np.max(np.abs(u - phase * v)) <= tol)


def asap_layers(gates) -> list[list]:
    """Greedy as-soon-as-possible layers: a gate lands one layer after the
    last earlier gate sharing an operand with it."""
    frontier: dict[int, int] = {}
    layers: list[list] = []
    for g in gates:
        lvl = max((frontier.get(q, 0) for q in g.qubits), default=0)
        while len(layers) <= lvl:
            layers.append([])
        layers[lvl].append(g)
        for q in g.qubits:
            frontier[q] = lvl + 1
    return layers


def _crosses(start_a, start_b, end_a, end_b) -> bool:
    """AOD tones cannot cross: relative row and column order must be kept,
    and atoms sharing a row or column must keep sharing it."""
    for axis in (0, 1):
        da = start_a[axis] - start_b[axis]
        db = end_a[axis] - end_b[axis]
        if (da < 0 and db >= 0) or (da > 0 and db <= 0) or (da == 0 and db != 0):
            return True
    return False


def _is_return_hop(events, kinds, i) -> bool:
    """SHUTTLE i closes a Type-2 isolation hop: SHUTTLE, PULSE_1Q, SHUTTLE
    on one qubit set."""
    return (
        i >= 2
        and kinds[i - 1] == "PULSE_1Q"
        and kinds[i - 2] == "SHUTTLE"
        and events[i].qubits == events[i - 1].qubits == events[i - 2].qubits
    )


def aod_order_violations(program, timeline, sites) -> tuple[int, int]:
    """Replay the entangling-zone shuttles of a schedule and return
    (layers whose movers cross in AOD order, entangling layers).

    ``sites`` maps qubit -> (row, col) at the start. Each 2Q pulse layer of an
    entangling step matches one PULSE_2Q event in order; the SHUTTLE right
    before it, if any, names the layer's movers, and each mover lands on its
    partner's site. The SHUTTLE that closes a Type-2 isolation hop
    (SHUTTLE, PULSE_1Q, SHUTTLE) moves no atom for good and names no movers.
    """
    pos = dict(sites)
    layers = [
        layer
        for step in program.steps
        if step.zone.value == "entangling"
        for layer in asap_layers(step.gates)
    ]
    events = timeline.events
    kinds = [e.kind.value for e in events]
    li = violations = 0
    for i, e in enumerate(events):
        if kinds[i] != "PULSE_2Q":
            continue
        if li >= len(layers):
            raise ValueError("more 2Q pulses than entangling layers")
        layer = layers[li]
        li += 1
        if set(e.qubits) != {q for g in layer for q in g.qubits}:
            raise ValueError(f"2Q pulse {li} does not match its entangling layer")
        if i == 0 or kinds[i - 1] != "SHUTTLE" or _is_return_hop(events, kinds, i - 1):
            continue  # every mover already sits on its partner
        movers = set(events[i - 1].qubits)
        moves = {}
        for g in layer:
            ms = [q for q in g.qubits if q in movers]
            if len(ms) != 1:
                raise ValueError(f"gate {g.qubits} has {len(ms)} movers")
            other = g.qubits[1] if g.qubits[0] == ms[0] else g.qubits[0]
            moves[ms[0]] = pos[other]
        ms = sorted(moves)
        if any(
            _crosses(pos[a], pos[b], moves[a], moves[b])
            for k, a in enumerate(ms)
            for b in ms[k + 1:]
        ):
            violations += 1
        pos.update(moves)
    if li != len(layers):
        raise ValueError("fewer 2Q pulses than entangling layers")
    return violations, len(layers)
