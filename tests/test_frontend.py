import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zonec.frontend import (
    BenchmarkSpec,
    Graph,
    ParseError,
    PauliTermFile,
    complete_graph,
    dump_pauli_file,
    dump_qasm,
    gen_ghz,
    gen_qaoa,
    gen_steane_prep,
    gen_ucc_random,
    parse_benchmark,
    parse_pauli_file,
    parse_qasm,
    power_law_graph,
    qaoa_angles,
)
from zonec.ir import Circuit, CircuitError, Gate, GateKind, PauliTerm


class TestQasm:
    def test_basic_program(self):
        c = parse_qasm(
            """
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];
            cx q[0],q[1];
            rz(pi/4) q[2];
            measure q[1] -> c[1];
            """
        )
        assert c.num_qubits == 3
        kinds = [g.kind for g in c.gates]
        assert kinds == [GateKind.H, GateKind.CX, GateKind.RZ, GateKind.MEASURE]
        assert c.gates[2].params[0] == pytest.approx(math.pi / 4)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n")
        assert exc.value.line == 3

    def test_out_of_range_operand(self):
        with pytest.raises(ParseError):
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n")

    def test_round_trip(self):
        c = gen_ghz(5, chain="path")
        assert parse_qasm(dump_qasm(c)) == c

    def test_empty_register_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_qasm("OPENQASM 2.0;\nqreg q[0];\n")
        assert exc.value.line == 2

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_parse_equals_append_built(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        c = Circuit(n)
        for _ in range(int(rng.integers(0, 30))):
            name = str(rng.choice(["h", "x", "rx", "rz", "cx", "cz", "swap", "rzz"]))
            kind = GateKind[name.upper()]
            arity = 2 if name in ("cx", "cz", "swap", "rzz") else 1
            params = [float(rng.uniform(-4, 4))] if name in ("rx", "rz", "rzz") else []
            c = c.append(kind, rng.permutation(n)[:arity].tolist(), params)
        for q in range(n):
            c = c.append(GateKind.MEASURE, [q])
        assert repr(parse_qasm(dump_qasm(c))) == repr(c)


# Angle expressions as QASM text: numbers, pi, unary +/-, + - * /, brackets.
_angle_exprs = st.recursive(
    st.one_of(
        st.just("pi"),
        st.integers(0, 10**6).map(str),
        st.floats(0, 1e6, allow_nan=False).map(repr),
        st.floats(0, 1e-3, allow_nan=False).map(repr),
    ),
    lambda inner: st.one_of(
        inner.map(lambda a: f"({a})"),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " * ", " / "]), inner)
        .map("".join),
    ),
    max_leaves=12,
)


class TestAngles:
    @given(_angle_exprs)
    @settings(max_examples=300, deadline=None)
    def test_same_float_as_python_arithmetic(self, expr):
        try:
            expected = float(eval(expr, {"__builtins__": {}}, {"pi": math.pi}))
        except ArithmeticError:
            expected = math.inf
        text = f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n"
        if math.isfinite(expected):
            assert parse_qasm(text).gates[0].params == (expected,)
        else:
            with pytest.raises(ParseError):
                parse_qasm(text)

    def test_idiom_angles(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(0.3183*pi) q[0];\n"
                       "rz(-1.5e-05*pi) q[0];\nrx(-(pi/2)) q[0];\n")
        assert [g.params[0] for g in c.gates] == [
            0.3183 * math.pi, -1.5e-05 * math.pi, -(math.pi / 2)]

    @pytest.mark.parametrize("expr", [
        "2**3", "2**2**2**2**2**2**2", "7//2", "pi()", "(1", "1 2", "p", "e",
        "1e999", "1e308*10", "-1e999", "1/0", "1e400/1e400", "__import__", "",
        "-" * 100000 + "1", "(" * 1000 + "1" + ")" * 1000, "+".join(["1"] * 50000),
        "9" * 5000, "1" * 4000 + "*" + "7" * 4000,
    ], ids=lambda e: e if len(e) < 30 else f"{e[:10]}...({len(e)})")
    def test_rejected(self, expr):
        with pytest.raises(ParseError) as exc:
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];\n")
        assert exc.value.line == 3


class TestPauliFile:
    def test_parse_and_dump(self):
        text = "qubits 3\n# comment\nXYZ 0.5\nZZI -1.25\n"
        pf = parse_pauli_file(text)
        assert pf.num_qubits == 3
        assert pf.terms[0] == PauliTerm("XYZ", 0.5)
        assert parse_pauli_file(dump_pauli_file(pf)) == pf

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_pauli_file("XYZ 0.5\n")

    def test_label_length_mismatch(self):
        with pytest.raises(ParseError):
            parse_pauli_file("qubits 2\nXYZ 0.5\n")

    @pytest.mark.parametrize("header", ["qubits", "qubits x", "qubits 0", "qubits -2"])
    def test_bad_header(self, header):
        with pytest.raises(ParseError) as exc:
            parse_pauli_file(f"# terms\n{header}\nXZ 0.5\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_angle(self, theta):
        with pytest.raises(ParseError) as exc:
            parse_pauli_file(f"qubits 2\nXZ 0.5\nZZ {theta}\n")
        assert exc.value.line == 3


class TestGhz:
    @pytest.mark.parametrize("chain", ["path", "fountain", "parallel"])
    def test_gate_budget(self, chain):
        c = gen_ghz(9, chain=chain, measure=False)
        assert sum(1 for g in c.gates if g.kind is GateKind.CX) == 8
        assert sum(1 for g in c.gates if g.kind is GateKind.H) == 1

    def test_parallel_depth_logarithmic(self):
        from zonec.ir import dependency_layers

        c = gen_ghz(16, chain="parallel", measure=False)
        cx_layers = dependency_layers(c.gates)
        assert len(cx_layers) == 1 + 4  # H layer + log2(16) doubling layers

    def test_measure_flag(self):
        assert any(g.kind is GateKind.MEASURE for g in gen_ghz(4).gates)
        assert not any(
            g.kind is GateKind.MEASURE for g in gen_ghz(4, measure=False).gates
        )


class TestUcc:
    def test_deterministic_per_seed(self):
        assert gen_ucc_random(8, 10, 3) == gen_ucc_random(8, 10, 3)
        assert gen_ucc_random(8, 10, 3) != gen_ucc_random(8, 10, 4)

    def test_shape(self):
        pf = gen_ucc_random(6, 10, 0)
        assert pf.num_qubits == 6 and len(pf.terms) == 10
        assert all(len(t.label) == 6 for t in pf.terms)
        assert all(t.weight >= 1 for t in pf.terms)


class TestQaoa:
    def test_complete_graph(self):
        g = complete_graph(5)
        assert len(g.edges) == 10

    def test_power_law_deterministic(self):
        assert power_law_graph(12, 5).edges == power_law_graph(12, 5).edges

    def test_circuit_layout(self):
        g = complete_graph(4)
        gammas, betas = qaoa_angles(2, 0)
        c = gen_qaoa(g, 2, gammas, betas)
        n_rzz = sum(1 for gg in c.gates if gg.kind is GateKind.RZZ)
        n_rx = sum(1 for gg in c.gates if gg.kind is GateKind.RX)
        assert n_rzz == 2 * 6 and n_rx == 2 * 4

    def test_angle_count_checked(self):
        with pytest.raises(ValueError):
            gen_qaoa(complete_graph(3), 2, [0.1], [0.2, 0.3])


class TestSteane:
    def test_stabilizers(self):
        from zonec.frontend import STEANE_X_STABILIZERS, STEANE_Z_STABILIZERS
        from zonec.oracle import pauli_expectation, statevector_of

        psi = statevector_of(gen_steane_prep())
        for s in STEANE_X_STABILIZERS + STEANE_Z_STABILIZERS:
            assert pauli_expectation(psi, s) == pytest.approx(1.0, abs=1e-9)


class TestBenchmarkSpec:
    def test_ghz_spec(self):
        spec = parse_benchmark("ghz:80:fountain")
        assert (spec.family, spec.num_qubits, spec.chain) == ("ghz", 80, "fountain")

    def test_ucc_spec(self):
        spec = parse_benchmark("ucc:15:10", seed=7)
        pf = spec.materialize()
        assert isinstance(pf, PauliTermFile)
        assert pf.num_qubits == 15 and len(pf.terms) == 10

    def test_qaoa_spec(self):
        c = parse_benchmark("qaoa-sk:6:2", seed=1).materialize()
        assert c.num_qubits == 6

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_benchmark("teleport:3")

    @pytest.mark.parametrize("spec, why", [
        ("ghz:4:path:junk", "at most one field"),
        ("ucc:4:2:9", "at most one field"),
        ("qaoa-sk:4:-1", "at least one layer"),
        ("qaoa-pl:6:0", "at least one layer"),
        ("po:4:0", "at least one layer"),
    ])
    def test_malformed_spec_named(self, spec, why):
        with pytest.raises(ValueError, match=why) as exc:
            parse_benchmark(spec)
        assert repr(spec) in str(exc.value)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_materialize_deterministic(self, seed):
        a = parse_benchmark("qaoa-pl:10:2", seed=seed).materialize()
        b = parse_benchmark("qaoa-pl:10:2", seed=seed).materialize()
        assert a == b


def _ghz_by_append(n, chain):
    c = Circuit(n).append(GateKind.H, [0])
    if chain == "path":
        for i in range(n - 1):
            c = c.append(GateKind.CX, [i, i + 1])
    elif chain == "fountain":
        for i in range(1, n):
            c = c.append(GateKind.CX, [0, i])
    else:
        segments = [(0, n)]
        while segments:
            nxt = []
            for lo, hi in segments:
                if hi - lo > 1:
                    mid = lo + (hi - lo + 1) // 2
                    c = c.append(GateKind.CX, [lo, mid])
                    nxt += [(lo, mid), (mid, hi)]
            segments = nxt
    for q in range(n):
        c = c.append(GateKind.MEASURE, [q])
    return c


def _qaoa_by_append(graph, p, gammas, betas):
    c = Circuit(graph.num_nodes)
    for q in range(graph.num_nodes):
        c = c.append(GateKind.H, [q])
    weights = graph.weights or (1.0,) * len(graph.edges)
    for k in range(p):
        for (a, b), w in zip(graph.edges, weights):
            c = c.append(GateKind.RZZ, [a, b], [gammas[k] * w])
        for q in range(graph.num_nodes):
            c = c.append(GateKind.RX, [q], [2.0 * betas[k]])
    for q in range(graph.num_nodes):
        c = c.append(GateKind.MEASURE, [q])
    return c


class TestBuildOnce:
    @pytest.mark.parametrize("chain", ["path", "fountain", "parallel"])
    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_ghz_equals_append_built(self, n, chain):
        assert repr(gen_ghz(n, chain)) == repr(_ghz_by_append(n, chain))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_qaoa_equals_append_built(self, seed):
        gammas, betas = qaoa_angles(2, seed)  # numpy-drawn, stored as float
        for graph in (complete_graph(5), power_law_graph(9, seed)):
            expected = _qaoa_by_append(graph, 2, gammas, betas)
            assert repr(gen_qaoa(graph, 2, gammas, betas)) == repr(expected)
        weighted = Graph(3, ((0, 1), (1, 2)), (np.float64(0.5), 2.0))
        expected = _qaoa_by_append(weighted, 2, gammas, betas)
        assert repr(gen_qaoa(weighted, 2, gammas, betas)) == repr(expected)

    def test_steane_equals_append_built(self):
        c = Circuit(7)
        for kind, qubits in [("H", [0]), ("H", [1]), ("H", [2]), ("H", [3]),
                             ("CX", [0, 5]), ("CX", [0, 6]), ("CX", [1, 4]),
                             ("CX", [1, 6]), ("CX", [2, 4]), ("CX", [2, 5]),
                             ("CX", [3, 4]), ("CX", [3, 5]), ("CX", [3, 6])]:
            c = c.append(GateKind[kind], qubits)
        assert gen_steane_prep() == c

    def test_extend_checks_range(self):
        c = Circuit(2).extend([Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 1))])
        assert c == Circuit(2).append(GateKind.H, [0]).append(GateKind.CZ, [0, 1])
        with pytest.raises(CircuitError, match=r"q\[2\]"):
            c.extend([Gate(GateKind.H, (1,)), Gate(GateKind.H, (2,))])

    @pytest.mark.parametrize("build", [
        lambda: parse_qasm("OPENQASM 2.0;\nqreg q[6];\n" + "".join(
            f"cx q[{i}],q[{i + 1}];\nrz({i}*pi/7) q[{i + 1}];\n" for i in range(5))),
        lambda: gen_qaoa(complete_graph(6), 2, [0.1, 0.2], [0.3, 0.4]),
        lambda: gen_ghz(12, "parallel"),
        gen_steane_prep,
    ], ids=["parse_qasm", "gen_qaoa", "gen_ghz", "gen_steane_prep"])
    def test_circuit_validated_once(self, build, monkeypatch):
        sizes = []
        validate = Circuit.__post_init__

        def counting(self):
            sizes.append(len(self.gates))
            validate(self)

        monkeypatch.setattr(Circuit, "__post_init__", counting)
        c = build()
        assert sizes == [len(c.gates)]
