import copy
import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from zonec.ir import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Zone,
    count_gates,
    dependency_layers,
    dump,
    layer_indices,
    parse_dump,
)


def h(q):
    return Gate(GateKind.H, (q,))


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


class TestGate:
    def test_arity_enforced(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(CircuitError):
            Gate(GateKind.CX, (0,))

    def test_param_count_enforced(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.RZ, (0,))
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (0,), (0.5,))
        Gate(GateKind.AD, (0, 1), (0.1, 0.2))

    def test_duplicate_operands_rejected(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.CX, (1, 1))

    # A bad gate for each check, with the message the check gives.
    BAD = [
        ((GateKind.H, (0, 1), ()), r"^H takes 1 operand\(s\), got 2$"),
        ((GateKind.RZ, (0,), ()), r"^RZ takes 1 parameter\(s\), got 0$"),
        ((GateKind.CZ, (2, 2), ()), r"^CZ has duplicate operands \(2, 2\)$"),
    ]
    # Every way to make a Gate. The pickle and copy paths start from a tuple
    # that skipped __new__, as a corrupt or hand-built one would.
    MAKERS = {
        "constructor": lambda f: Gate(*f),
        "keywords": lambda f: Gate(kind=f[0], qubits=f[1], params=f[2]),
        "_make": lambda f: Gate._make(f),
        "_replace": lambda f: Gate(GateKind.CZ, (0, 1))._replace(
            kind=f[0], qubits=f[1], params=f[2]),
        "pickle": lambda f: pickle.loads(pickle.dumps(tuple.__new__(Gate, f))),
        "copy": lambda f: copy.copy(tuple.__new__(Gate, f)),
        "deepcopy": lambda f: copy.deepcopy(tuple.__new__(Gate, f)),
    }

    @pytest.mark.parametrize("fields, message", BAD)
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_every_construction_path_checks(self, make, fields, message):
        with pytest.raises(CircuitError, match=message):
            make(fields)

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_every_construction_path_keeps_a_good_gate(self, make):
        fields = (GateKind.AD, (3, 1), (0.1, 0.2))
        g = make(fields)
        assert type(g) is Gate and g == Gate(*fields)

    def test_replace_one_field(self):
        g = Gate(GateKind.CZ, (0, 1))
        assert g._replace(qubits=(2, 3)) == Gate(GateKind.CZ, (2, 3))
        with pytest.raises(CircuitError, match="duplicate operands"):
            g._replace(qubits=(2, 2))

    def test_immutable(self):
        g = Gate(GateKind.RZ, (3,), (0.25,))
        with pytest.raises(AttributeError):
            g.kind = GateKind.H
        with pytest.raises(AttributeError):
            g.label = "extra"
        with pytest.raises(TypeError):
            g[0] = GateKind.H
        assert g == Gate(GateKind.RZ, (3,), (0.25,))

    def test_hash_and_repr_match_the_field_tuple(self):
        g = Gate(GateKind.RZ, (3,), (0.25,))
        assert hash(g) == hash((g.kind, g.qubits, g.params))
        assert repr(g) == "Gate(kind=<GateKind.RZ: 'RZ'>, qubits=(3,), params=(0.25,))"

    def test_zone_assignment(self):
        assert Gate(GateKind.RZ, (0,), (0.3,)).zone is Zone.STORAGE
        assert cx(0, 1).zone is Zone.ENTANGLING
        assert Gate(GateKind.MEASURE, (0,)).zone is Zone.READOUT


class TestCircuit:
    def test_operand_range_checked(self):
        with pytest.raises(CircuitError):
            Circuit(1, (cx(0, 1),))

    def test_append_operand_range_checked(self):
        with pytest.raises(CircuitError, match=r"operand q\[2\] out of range for 2"):
            Circuit(2).append(GateKind.CX, (0, 2))

    def test_append_is_persistent(self):
        c = Circuit(2)
        c2 = c.append(GateKind.H, (0,))
        assert len(c.gates) == 0 and len(c2.gates) == 1

    def test_dependency_layers_chain(self):
        g = (h(0), cx(0, 1), cx(1, 2), h(2))
        assert dependency_layers(g) == [[g[0]], [g[1]], [g[2]], [g[3]]]

    def test_dependency_layers_parallel(self):
        g = (cx(0, 1), cx(2, 3), h(0), h(2))
        assert dependency_layers(g) == [[g[0], g[1]], [g[2], g[3]]]

    def test_counts_exclude_rz_and_measure(self):
        c = Circuit(
            2,
            (
                h(0),
                Gate(GateKind.RZ, (0,), (0.1,)),
                cx(0, 1),
                Gate(GateKind.MEASURE, (1,)),
            ),
        )
        counts = count_gates(c)
        assert (counts.n_1q, counts.n_rz, counts.n_2q, counts.n_measure) == (1, 1, 1, 1)
        assert counts.n_pulsed == 2


@st.composite
def circuits(draw, max_qubits=5, max_gates=20):
    n = draw(st.integers(2, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(
            st.sampled_from(
                [GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ, GateKind.CX,
                 GateKind.CZ, GateKind.RZZ]
            )
        )
        qs = draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        )
        from zonec.ir import ARITY, NUM_PARAMS

        qubits = tuple(qs[: ARITY[kind]])
        params = tuple(
            draw(st.floats(-math.pi, math.pi, allow_nan=False))
            for _ in range(NUM_PARAMS[kind])
        )
        gates.append(Gate(kind, qubits, params))
    return Circuit(n, tuple(gates))


class TestDump:
    @given(circuits())
    def test_round_trip_identity(self, c):
        assert parse_dump(dump(c)) == c

    @given(circuits())
    def test_dump_deterministic(self, c):
        assert dump(c) == dump(parse_dump(dump(c)))

    def test_parse_rejects_garbage(self):
        with pytest.raises(CircuitError):
            parse_dump("qubits 2\nBOGUS 0\n")

    @pytest.mark.parametrize("header", ["qubits x", "qubits ", "qubits 2.5"])
    def test_parse_rejects_bad_qubit_count(self, header):
        with pytest.raises(CircuitError):
            parse_dump(header + "\nH q[0]\n")

    @pytest.mark.parametrize("param", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_parameter(self, param):
        with pytest.raises(CircuitError):
            parse_dump(f"qubits 1\nRZ q[0] ({param})\n")
        with pytest.raises(CircuitError):
            parse_dump(f"qubits 2\nAD q[0],q[1] (0.5,{param})\n")

    # circuits() builds a new Gate object per draw, so identity names a gate.
    @given(circuits())
    def test_layers_partition_gates(self, c):
        seen = [id(g) for layer in dependency_layers(c.gates) for g in layer]
        assert sorted(seen) == sorted(map(id, c.gates))
        assert len(set(seen)) == len(c.gates)

    @given(circuits())
    def test_layers_respect_dependencies(self, c):
        pos = {}
        for li, layer in enumerate(dependency_layers(c.gates)):
            for g in layer:
                pos[id(g)] = li
        for i, gi in enumerate(c.gates):
            for gj in c.gates[i + 1 :]:
                if set(gi.qubits) & set(gj.qubits):
                    assert pos[id(gi)] < pos[id(gj)]


def _reference_layers(gates):
    """The layering rule as first written, a ``max`` over every gate's
    operands; the reference for ``layer_indices``."""
    frontier: dict[int, int] = {}  # qubit -> earliest free layer
    layers: list[list[Gate]] = []
    for g in gates:
        layer = max((frontier.get(q, 0) for q in g.qubits), default=0)
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(g)
        for q in g.qubits:
            frontier[q] = layer + 1
    return layers


@st.composite
def gate_lists(draw, max_qubits=8, max_gates=30):
    """A fresh ``Gate`` per draw, so identity names a gate."""
    from zonec.ir import ARITY, NUM_PARAMS

    n = draw(st.integers(1, max_qubits))
    kinds = [GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ, GateKind.MEASURE]
    if n >= 2:
        kinds += [GateKind.CZ, GateKind.CX, GateKind.RZZ]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        qs = draw(st.lists(st.integers(0, n - 1), min_size=ARITY[kind],
                           max_size=ARITY[kind], unique=True))
        gates.append(Gate(kind, tuple(qs), (0.5,) * NUM_PARAMS[kind]))
    return gates


class TestLayerIndices:
    @given(gate_lists())
    @example([])
    def test_matches_reference(self, gates):
        by_position = [[gates[i] for i in layer] for layer in layer_indices(gates)]
        assert [list(map(id, layer)) for layer in by_position] == [
            list(map(id, layer)) for layer in _reference_layers(gates)
        ]

    @given(gate_lists())
    @example([])
    def test_dependency_layers_is_the_gate_view(self, gates):
        view = [[gates[i] for i in layer] for layer in layer_indices(gates)]
        assert [list(map(id, layer)) for layer in dependency_layers(gates)] == [
            list(map(id, layer)) for layer in view
        ]
