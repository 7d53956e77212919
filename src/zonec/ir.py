"""Gate-level circuit IR shared by the frontends, rewrite passes, and scheduler.

Circuits are immutable: a pass collects ``Gate``s and builds a new ``Circuit``
once. Gate order is program order; nothing reorders commuting gates
implicitly.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import wraps
from typing import NamedTuple


class Zone(Enum):
    STORAGE = "storage"
    ENTANGLING = "entangling"
    READOUT = "readout"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; Enum's own hash runs Python code on every dict lookup.
    # Reading a member as ``Zone.STORAGE`` runs Python code too (CPython
    # 3.11's ``EnumType.__getattr__``), so each enum's module binds every
    # member to a module name, which functions read (tests/test_layering.py).
    __hash__ = object.__hash__


class GateKind(Enum):
    H = "H"
    X = "X"
    RX = "RX"
    RZ = "RZ"
    CX = "CX"
    CZ = "CZ"
    SWAP = "SWAP"
    RZZ = "RZZ"
    CPHASE = "CPHASE"
    LP = "LP"
    AD = "AD"
    MEASURE = "MEASURE"

    __hash__ = object.__hash__  # as for Zone


# Every member under its own name, which functions read (see ``Zone``).
STORAGE, ENTANGLING, READOUT = Zone
H, X, RX, RZ, CX, CZ, SWAP, RZZ, CPHASE, LP, AD, MEASURE = GateKind

# Operand and parameter count per kind.
_SIGNATURES = {
    GateKind.H: (1, 0),
    GateKind.X: (1, 0),
    GateKind.RX: (1, 1),
    GateKind.RZ: (1, 1),
    GateKind.CX: (2, 0),
    GateKind.CZ: (2, 0),
    GateKind.SWAP: (2, 0),
    GateKind.RZZ: (2, 1),
    GateKind.CPHASE: (2, 1),
    GateKind.LP: (2, 1),
    GateKind.AD: (2, 2),
    GateKind.MEASURE: (1, 0),
}
ARITY = {kind: arity for kind, (arity, _) in _SIGNATURES.items()}
NUM_PARAMS = {kind: n for kind, (_, n) in _SIGNATURES.items()}

# Zone class is fixed per kind: 1Q gates run in the storage zone, 2Q gates in
# the entangling zone, MEASURE in the readout zone (Type 1 policy semantics).
GATE_ZONE = {kind: Zone.STORAGE if n == 1 else Zone.ENTANGLING for kind, n in ARITY.items()}
GATE_ZONE[GateKind.MEASURE] = Zone.READOUT


# Kinds that take no pulse: RZ is a virtual frame change of zero duration,
# MEASURE is readout. Gate counts, pulse layers and fidelity skip them.
UNPULSED = (GateKind.RZ, GateKind.MEASURE)


class CircuitError(ValueError):
    pass


def paused_gc(fn):
    """Decorator: run ``fn`` with the cyclic garbage collector off. When
    ``fn`` returns or raises, the collector is turned back on if it was on
    when ``fn`` started, so a nested stage, or a caller that turned it off,
    finds it still off.

    Every ``Gate`` and scheduler ``Event`` holds an Enum member, so the
    collector tracks each one, and every full collection walks all that are
    alive: a stage's collections cost more than linear time in its gates and
    events. A compile, schedule or cost stage makes no cyclic garbage once
    its lazy imports have run, so the collector has nothing to find there.
    The switch is the interpreter's, so the pause holds in every thread.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class _GateFields(NamedTuple):  # NamedTuple's own body may not define __new__
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


class Gate(_GateFields):
    """An immutable ``(kind, qubits, params)`` tuple. The constructor,
    ``_make`` (so ``_replace``), pickle and ``copy`` all check it."""

    __slots__ = ()

    def __new__(cls, kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...] = ()):
        arity, n_params = _SIGNATURES[kind]
        if len(qubits) != arity:
            raise CircuitError(f"{kind.value} takes {arity} operand(s), got {len(qubits)}")
        if len(params) != n_params:
            raise CircuitError(
                f"{kind.value} takes {n_params} parameter(s), got {len(params)}"
            )
        # Every kind takes one or two operands, so only a pair can repeat one.
        if arity == 2 and qubits[0] == qubits[1]:
            raise CircuitError(f"{kind.value} has duplicate operands {qubits}")
        return tuple.__new__(cls, (kind, qubits, params))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        return cls(*iterable)

    @property
    def zone(self) -> Zone:
        return GATE_ZONE[self.kind]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"operand q[{q}] out of range for {self.num_qubits} qubits"
                    )


@dataclass(frozen=True)
class PauliTerm:
    """Pauli string with rotation angle, specifying exp(-i*theta/2 * P)."""

    label: str
    theta: float
    # The non-I positions, ascending; set once from the label.
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = set(self.label) - set("IXYZ")
        if bad:
            raise CircuitError(f"invalid Pauli characters {sorted(bad)} in {self.label!r}")
        if not self.label:
            raise CircuitError("empty Pauli label")
        if not math.isfinite(self.theta):
            raise CircuitError(f"non-finite angle {self.theta!r}")
        support = tuple(i for i, c in enumerate(self.label) if c != "I")
        object.__setattr__(self, "support", support)

    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def weight(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class PauliTermFile:
    """Pauli terms over one register, compiled term by term."""

    num_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.num_qubits != self.num_qubits:
                raise CircuitError(
                    f"term {t.label!r} has length {t.num_qubits}, "
                    f"expected {self.num_qubits}"
                )


def layer_indices(gates) -> list[list[int]]:
    """Greedy as-soon-as-possible layering of the gate dependency DAG, as
    positions into ``gates``.

    Each gate lands in the earliest layer after every earlier gate that shares
    an operand with it; within a layer positions ascend. zonec layers gates
    only through this function.
    """
    frontier: dict[int, int] = {}  # qubit -> earliest free layer
    free = frontier.get
    layers: list[list[int]] = []
    for i, g in enumerate(gates):
        qubits = g.qubits
        if len(qubits) == 2:
            a, b = qubits
            layer = free(a, 0)
            lb = free(b, 0)
            if lb > layer:
                layer = lb
            frontier[a] = frontier[b] = layer + 1
        else:  # every gate kind has one or two operands
            (a,) = qubits
            layer = free(a, 0)
            frontier[a] = layer + 1
        # A frontier never exceeds the layer count, so a gate opens at most
        # one new layer.
        if layer == len(layers):
            layers.append([i])
        else:
            layers[layer].append(i)
    return layers

