"""Closed-form 4x4 unitaries for the Rydberg-mediated gate set and the phase
formulas of the single-qubit-gateless arbitrary ZZ-rotation recipes: RZZ(gamma)
is LP(gamma) then CPHASE(cphase_phi(gamma)), or Ad(adiabatic_phases(gamma))
then LP(gamma).

Basis order is |00>, |01>, |10>, |11>. All constructors return fresh arrays.
numpy is imported inside the matrix helpers only: the recipe phases are
plain floats, so the compile path never loads it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def rzz_matrix(gamma: float) -> np.ndarray:
    """ZZ rotation target: applies phase gamma to |01> and |10>."""
    import numpy as np

    return np.diag([1.0, np.exp(1j * gamma), np.exp(1j * gamma), 1.0])


def lp_matrix(gamma: float) -> np.ndarray:
    """Levine-Pichler gate: phase gamma on |01>,|10> and 2*gamma+pi on |11>."""
    import numpy as np

    e = np.exp(1j * gamma)
    return np.diag([1.0, e, e, np.exp(1j * (2.0 * gamma + np.pi))])


def cphase_matrix(phi: float) -> np.ndarray:
    """Controlled phase: phi on |11> only."""
    import numpy as np

    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])


def adiabatic_matrix(phi1: float, phi2: float) -> np.ndarray:
    """Adiabatic gate: phase phi2 - 2*phi1 on |11> only.

    phi1 is set by the single-atom light shift, phi2 by the two-atom light
    shift; both exponents are imaginary (the phase-cancellation condition is
    meaningless otherwise).
    """
    import numpy as np

    return np.diag([1.0, 1.0, 1.0, np.exp(1j * (phi2 - 2.0 * phi1))])


def cphase_phi(gamma: float) -> float:
    """CPHASE angle after LP(gamma): -2*gamma - pi, so the total |11> phase
    cancels to zero."""
    return -2.0 * gamma - math.pi


def adiabatic_phases(gamma: float, phi2: float = 0.0) -> tuple[float, float]:
    """Ad gate phases (phi1, phi2) before LP(gamma), with
    phi1 = (pi + 2*gamma + phi2) / 2.

    The Ad gate contributes exp(i*(phi2 - 2*phi1)) = exp(-i*(pi + 2*gamma)) on
    |11>, cancelling the LP gate's exp(i*(2*gamma + pi)).
    """
    return (math.pi + 2.0 * gamma + phi2) / 2.0, phi2


def equiv_up_to_global_phase(u, v, tol: float = 1e-9) -> bool:
    """True iff u = exp(i*alpha) * v for some alpha, within tol elementwise.

    alpha is extracted from the largest-magnitude element of v, which avoids
    dividing by near-zero entries.
    """
    import numpy as np

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
    import numpy as np

    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol)
