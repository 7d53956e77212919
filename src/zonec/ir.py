"""Gate-level circuit IR shared by the frontends, rewrite passes, and scheduler.

Circuits are immutable: every mutation returns a new ``Circuit``. Gate order is
program order; nothing reorders commuting gates implicitly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum


class Zone(Enum):
    STORAGE = "storage"
    ENTANGLING = "entangling"
    READOUT = "readout"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; Enum's own hash runs Python code on every dict lookup.
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


ARITY = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.RX: 1,
    GateKind.RZ: 1,
    GateKind.CX: 2,
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
    GateKind.RZZ: 2,
    GateKind.CPHASE: 2,
    GateKind.LP: 2,
    GateKind.AD: 2,
    GateKind.MEASURE: 1,
}

NUM_PARAMS = {
    GateKind.H: 0,
    GateKind.X: 0,
    GateKind.RX: 1,
    GateKind.RZ: 1,
    GateKind.CX: 0,
    GateKind.CZ: 0,
    GateKind.SWAP: 0,
    GateKind.RZZ: 1,
    GateKind.CPHASE: 1,
    GateKind.LP: 1,
    GateKind.AD: 2,
    GateKind.MEASURE: 0,
}

# Zone class is fixed per kind: 1Q gates run in the storage zone, 2Q gates in
# the entangling zone, MEASURE in the readout zone (Type 1 policy semantics).
GATE_ZONE = {
    kind: (
        Zone.READOUT
        if kind is GateKind.MEASURE
        else (Zone.STORAGE if ARITY[kind] == 1 else Zone.ENTANGLING)
    )
    for kind in GateKind
}


# Kinds that take no pulse: RZ is a virtual frame change of zero duration,
# MEASURE is readout. Gate counts, pulse layers and fidelity skip them.
UNPULSED = (GateKind.RZ, GateKind.MEASURE)


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.qubits) != ARITY[self.kind]:
            raise CircuitError(
                f"{self.kind.value} takes {ARITY[self.kind]} operand(s), "
                f"got {len(self.qubits)}"
            )
        if len(self.params) != NUM_PARAMS[self.kind]:
            raise CircuitError(
                f"{self.kind.value} takes {NUM_PARAMS[self.kind]} parameter(s), "
                f"got {len(self.params)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"{self.kind.value} has duplicate operands {self.qubits}")

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

    def append(self, kind: GateKind, qubits, params=()) -> "Circuit":
        """Return a copy with one gate added. Each call copies and re-checks
        the whole gate tuple, so it costs O(len); bulk builders should
        collect ``Gate``s in a list and construct the ``Circuit`` once."""
        gate = Gate(kind, tuple(qubits), tuple(float(p) for p in params))
        return Circuit(self.num_qubits, self.gates + (gate,))

    def extend(self, gates) -> "Circuit":
        return Circuit(self.num_qubits, self.gates + tuple(gates))

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class PauliTerm:
    """Pauli string with rotation angle, specifying exp(-i*theta/2 * P)."""

    label: str
    theta: float

    def __post_init__(self):
        bad = set(self.label) - set("IXYZ")
        if bad:
            raise CircuitError(f"invalid Pauli characters {sorted(bad)} in {self.label!r}")
        if not self.label:
            raise CircuitError("empty Pauli label")

    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.label) if c != "I")

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


def dependency_layers(gates) -> list[list[Gate]]:
    """``layer_indices`` as lists of the gates themselves."""
    gates = tuple(gates)
    return [[gates[i] for i in layer] for layer in layer_indices(gates)]


@dataclass(frozen=True)
class GateCounts:
    by_kind: dict
    n_1q: int  # 1-qubit pulsed gates (the UNPULSED kinds excluded)
    n_rz: int
    n_2q: int
    n_measure: int

    @property
    def n_pulsed(self) -> int:
        return self.n_1q + self.n_2q


def count_gates(circuit: Circuit) -> GateCounts:
    by_kind = Counter(g.kind for g in circuit.gates)
    n_rz = by_kind.get(GateKind.RZ, 0)
    n_measure = by_kind.get(GateKind.MEASURE, 0)
    n_1q = sum(n for k, n in by_kind.items() if ARITY[k] == 1 and k not in UNPULSED)
    n_2q = sum(n for k, n in by_kind.items() if ARITY[k] == 2)
    return GateCounts(dict(by_kind), n_1q, n_rz, n_2q, n_measure)


# -- Canonical textual dump: one gate per line, `KIND q[i](,q[j]) (param,...)` --


def _fmt_params(params: tuple[float, ...]) -> str:
    if not params:
        return ""
    return " (" + ",".join(repr(p) for p in params) + ")"


def dump(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        ops = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.kind.value} {ops}{_fmt_params(g.params)}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise CircuitError("dump must start with a `qubits <n>` line")
    try:
        num_qubits = int(lines[0].split()[1])
    except (ValueError, IndexError) as e:
        raise CircuitError(f"malformed dump header {lines[0]!r}: {e}") from e
    gates = []
    for ln in lines[1:]:
        head, _, tail = ln.partition(" ")
        try:
            kind = GateKind(head)
            ops_text, _, param_text = tail.partition(" (")
            qubits = tuple(
                int(tok[2:-1]) for tok in ops_text.strip().split(",") if tok
            )
            params: tuple[float, ...] = ()
            if param_text:
                params = tuple(float(tok) for tok in param_text.rstrip(")").split(","))
        except (ValueError, IndexError) as e:
            raise CircuitError(f"malformed dump line {ln!r}: {e}") from e
        if not all(map(math.isfinite, params)):
            raise CircuitError(f"non-finite parameter in dump line {ln!r}")
        gates.append(Gate(kind, qubits, params))
    return Circuit(num_qubits, tuple(gates))
