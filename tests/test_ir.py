import copy
import math
import pickle

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from zonec.cli import cli
from zonec.ir import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    PauliTerm,
    Zone,
    layer_indices,
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

    @given(
        st.sampled_from(GateKind),
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
        st.lists(st.floats(-4.0, 4.0), max_size=3).map(tuple),
    )
    @example(GateKind.AD, (2, 2), (0.1,))  # two checks fail: the first one speaks
    def test_checks_match_reference(self, kind, qubits, params):
        def outcome(make):
            try:
                return tuple(make(kind, qubits, params))
            except CircuitError as e:
                return str(e)

        assert outcome(Gate) == outcome(_reference_gate)


def _reference_gate(kind, qubits, params=()):
    """The gate checks as first written, one table lookup per check and a
    set for duplicates; the reference for ``Gate``'s constructor."""
    from zonec.ir import ARITY, NUM_PARAMS

    if len(qubits) != ARITY[kind]:
        raise CircuitError(f"{kind.value} takes {ARITY[kind]} operand(s), got {len(qubits)}")
    if len(params) != NUM_PARAMS[kind]:
        raise CircuitError(
            f"{kind.value} takes {NUM_PARAMS[kind]} parameter(s), got {len(params)}"
        )
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"{kind.value} has duplicate operands {qubits}")
    return (kind, qubits, params)


class TestPauliTerm:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle(self, theta):
        # A NaN angle once compiled to an RZ(nan) and a finite fidelity.
        with pytest.raises(CircuitError, match="non-finite angle"):
            PauliTerm("XZ", theta)


class TestCircuit:
    def test_operand_range_checked(self):
        with pytest.raises(CircuitError, match=r"^operand q\[1\] out of range for 1 qubits$"):
            Circuit(1, (cx(0, 1),))
        with pytest.raises(CircuitError, match=r"^operand q\[2\] out of range for 2 qubits$"):
            Circuit(2, (h(0), cx(0, 2)))

    def test_dependency_layers_chain(self):
        g = (h(0), cx(0, 1), cx(1, 2), h(2))
        assert layer_indices(g) == [[0], [1], [2], [3]]

    def test_dependency_layers_parallel(self):
        g = (cx(0, 1), cx(2, 3), h(0), h(2))
        assert layer_indices(g) == [[0, 1], [2, 3]]

    def test_counts_exclude_rz_and_measure(self, tmp_path):
        # h; rz; cx; measure, as compile prints the counts of the compiled
        # program: the CX lowers to H CZ H, and RZ and MEASURE take no pulse.
        qasm = tmp_path / "c.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
                        "rz(0.1) q[0];\ncx q[0],q[1];\nmeasure q[1] -> c[1];\n")
        r = CliRunner().invoke(cli, ["compile", "--qasm", str(qasm)])
        assert r.exit_code == 0
        assert "n_1q = 3\nn_rz = 1\nn_2q = 1\n" in r.stdout

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
    def test_layers_partition_gates(self, gates):
        seen = [i for layer in layer_indices(gates) for i in layer]
        assert sorted(seen) == list(range(len(gates)))

    @given(gate_lists())
    def test_layers_respect_dependencies(self, gates):
        pos = {i: li for li, layer in enumerate(layer_indices(gates)) for i in layer}
        for i, gi in enumerate(gates):
            for j in range(i + 1, len(gates)):
                if set(gi.qubits) & set(gates[j].qubits):
                    assert pos[i] < pos[j]
