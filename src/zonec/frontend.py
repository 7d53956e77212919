"""Circuit frontends: an OpenQASM-2.0 subset parser, Pauli-term files, and the
scalable benchmark generators (GHZ chains, random UCC terms, QAOA, Steane prep).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass

from .ir import Circuit, CircuitError, Gate, GateKind, PauliTerm, PauliTermFile


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_QASM_GATES = {
    "h": (GateKind.H, 1, 0),
    "x": (GateKind.X, 1, 0),
    "rx": (GateKind.RX, 1, 1),
    "rz": (GateKind.RZ, 1, 1),
    "cx": (GateKind.CX, 2, 0),
    "cz": (GateKind.CZ, 2, 0),
    "swap": (GateKind.SWAP, 2, 0),
    "rzz": (GateKind.RZZ, 2, 1),
    "measure": (GateKind.MEASURE, 1, 0),
}

_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_STMT_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?\s*(.*)$")  # angles may nest ()
_OPERAND_RE = re.compile(r"^(\w+)\s*\[\s*(\d+)\s*\]$")


_ANGLE_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_ANGLE_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _angle_value(node: ast.expr):
    """Value of an angle expression tree holding only numbers, ``pi``, unary
    +/- and binary + - * /; anything else raises ValueError."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ANGLE_UNARY:
        return _ANGLE_UNARY[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_BINARY:
        return _ANGLE_BINARY[type(node.op)](
            _angle_value(node.left), _angle_value(node.right)
        )
    raise ValueError(f"unsupported {type(node).__name__}")


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate a QASM angle expression (numbers, pi, unary +/-, + - * /,
    parentheses) to a finite float."""
    expr = expr.strip()
    if not re.fullmatch(r"[0-9eE\.\+\-\*/\s\(\)pi]*", expr) or not expr:
        raise ParseError(f"unsupported angle expression {expr!r}", line)
    try:
        value = float(_angle_value(ast.parse(expr, mode="eval").body))
    except (SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError):
        # MemoryError and RecursionError: the parser's or walker's nesting limit
        raise ParseError(f"invalid angle expression {expr!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite angle {expr!r}", line)
    return value


def parse_qasm(text: str) -> Circuit:
    """Parse the supported OpenQASM-2.0 subset into a Circuit.

    Supported: one qreg, gates {h, x, rx, rz, cx, cz, swap, rzz, measure},
    no custom gate definitions, no classical control.
    """
    qreg_name = None
    num_qubits = 0
    creg_names: set[str] = set()
    gates: list[Gate] = []
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if stmt.startswith("OPENQASM"):
                if "2.0" not in stmt:
                    raise ParseError("only OPENQASM 2.0 is supported", lineno)
                saw_header = True
                continue
            if stmt.startswith("include"):
                continue
            if stmt.startswith("qreg"):
                m = _QREG_RE.match(stmt)
                if not m:
                    raise ParseError("malformed qreg declaration", lineno)
                if qreg_name is not None:
                    raise ParseError("only one qreg is supported", lineno)
                qreg_name, num_qubits = m.group(1), int(m.group(2))
                if num_qubits < 1:
                    raise ParseError("circuit needs at least one qubit", lineno)
                continue
            if stmt.startswith("creg"):
                m = _CREG_RE.match(stmt)
                if not m:
                    raise ParseError("malformed creg declaration", lineno)
                creg_names.add(m.group(1))
                continue
            if stmt.startswith("barrier"):
                continue

            m = _STMT_RE.match(stmt)
            if not m:
                raise ParseError(f"cannot parse statement {stmt!r}", lineno)
            name, arg_text, operand_text = m.group(1), m.group(2), m.group(3)
            if name not in _QASM_GATES:
                raise ParseError(f"unsupported gate {name!r}", lineno)
            if qreg_name is None:
                raise ParseError("gate before qreg declaration", lineno)
            kind, arity, n_params = _QASM_GATES[name]

            params: tuple[float, ...] = ()
            if n_params:
                if arg_text is None:
                    raise ParseError(f"{name} requires an angle argument", lineno)
                params = (_eval_angle(arg_text, lineno),)
            elif arg_text is not None:
                raise ParseError(f"{name} takes no arguments", lineno)

            if kind is GateKind.MEASURE:
                operand_text = operand_text.split("->")[0].strip()
            operands = []
            for col, tok in enumerate(
                t.strip() for t in operand_text.split(",") if t.strip()
            ):
                om = _OPERAND_RE.match(tok)
                if not om:
                    raise ParseError(f"malformed operand {tok!r}", lineno, col)
                reg, idx = om.group(1), int(om.group(2))
                if reg != qreg_name:
                    raise ParseError(f"undeclared register {reg!r}", lineno, col)
                if idx >= num_qubits:
                    raise ParseError(
                        f"operand {reg}[{idx}] out of range (size {num_qubits})",
                        lineno,
                        col,
                    )
                operands.append(idx)
            if len(operands) != arity:
                raise ParseError(
                    f"{name} takes {arity} operand(s), got {len(operands)}", lineno
                )
            try:
                gates.append(Gate(kind, tuple(operands), params))
            except CircuitError as e:
                raise ParseError(str(e), lineno) from None

    if not saw_header:
        raise ParseError("missing OPENQASM 2.0 header", 1)
    if qreg_name is None:
        raise ParseError("no qreg declared", 1)
    return Circuit(num_qubits, tuple(gates))


def dump_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if any(g.kind is GateKind.MEASURE for g in circuit.gates):
        lines.append(f"creg c[{circuit.num_qubits}];")
    for g in circuit.gates:
        name = g.kind.value.lower()
        ops = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.qubits[0]}];")
        elif g.params:
            args = ",".join(repr(p) for p in g.params)
            lines.append(f"{name}({args}) {ops};")
        else:
            lines.append(f"{name} {ops};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pauli-term files:  header `qubits <n>`, then `<label> <theta>` per line
# ---------------------------------------------------------------------------


def parse_pauli_file(text: str) -> PauliTermFile:
    num_qubits = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "qubits":
            if num_qubits is not None:
                raise ParseError("duplicate qubits header", lineno)
            try:
                num_qubits = int(toks[1])
            except (IndexError, ValueError):
                raise ParseError("expected `qubits <n>`", lineno) from None
            if num_qubits < 1:
                raise ParseError("need at least one qubit", lineno)
            continue
        if num_qubits is None:
            raise ParseError("missing `qubits <n>` header", lineno)
        if len(toks) != 2:
            raise ParseError("expected `<label> <theta>`", lineno)
        label, theta = toks
        if len(label) != num_qubits:
            raise ParseError(
                f"label length {len(label)} != declared qubit count {num_qubits}",
                lineno,
            )
        try:
            term = PauliTerm(label, float(theta))
        except (ValueError, CircuitError) as e:
            raise ParseError(str(e), lineno) from None
        if not math.isfinite(term.theta):
            raise ParseError(f"non-finite angle {theta!r}", lineno)
        terms.append(term)
    if num_qubits is None:
        raise ParseError("missing `qubits <n>` header", 1)
    return PauliTermFile(num_qubits, tuple(terms))


def dump_pauli_file(pf: PauliTermFile) -> str:
    lines = [f"qubits {pf.num_qubits}"]
    lines += [f"{t.label} {t.theta!r}" for t in pf.terms]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Benchmark generators
# ---------------------------------------------------------------------------

CHAINS = ("path", "fountain", "parallel")


def gen_ghz(n: int, chain: str = "fountain", measure: bool = True) -> Circuit:
    """GHZ state preparation with the given CX chain shape.

    path:     CX(i, i+1) cascade.
    fountain: CX(0, i) for all i, control concentrated on qubit 0.
    parallel: doubling tree of depth ceil(log2 n).
    """
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    if chain not in CHAINS:
        raise ValueError(f"unknown chain {chain!r}, expected one of {CHAINS}")
    gates = [Gate(GateKind.H, (0,))]
    if chain == "path":
        gates += [Gate(GateKind.CX, (i, i + 1)) for i in range(n - 1)]
    elif chain == "fountain":
        gates += [Gate(GateKind.CX, (0, i)) for i in range(1, n)]
    else:
        # Doubling tree, emitted in breadth-first layer order so the natural
        # dependency layering matches the logarithmic depth.
        segments = [(0, n)]
        while segments:
            nxt = []
            for lo, hi in segments:
                if hi - lo <= 1:
                    continue
                mid = lo + (hi - lo + 1) // 2
                gates.append(Gate(GateKind.CX, (lo, mid)))
                nxt += [(lo, mid), (mid, hi)]
            segments = nxt
    if measure:
        gates += [Gate(GateKind.MEASURE, (q,)) for q in range(n)]
    return Circuit(n, tuple(gates))


def gen_ucc_random(n: int, num_terms: int, seed: int) -> PauliTermFile:
    """Random UCC-style Pauli-term file: characters i.i.d. uniform over
    {I,X,Y,Z}, angles uniform over (0, 2*pi). Deterministic per seed."""
    import numpy as np

    if n < 2:
        raise ValueError("need at least 2 qubits")
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(num_terms):
        label = "".join(rng.choice(list("IXYZ"), size=n))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        terms.append(PauliTerm(label, theta))
    return PauliTermFile(n, tuple(terms))


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")


def complete_graph(n: int) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n, edges)


def power_law_graph(n: int, seed: int, m: int = 2) -> Graph:
    """Preferential-attachment graph (Barabasi-Albert style, m edges per new
    node), deterministic per seed."""
    import numpy as np

    if n < m + 1:
        raise ValueError(f"need at least {m + 1} nodes")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    degree = [m] * (m + 1)
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            probs = np.array(degree, dtype=float)
            probs /= probs.sum()
            t = int(rng.choice(len(degree), p=probs))
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v))
            degree[t] += 1
        degree.append(m)
    return Graph(n, tuple(edges))


def gen_qaoa(
    graph: Graph,
    p: int,
    gammas,
    betas,
    measure: bool = True,
) -> Circuit:
    """QAOA circuit: H layer, then per layer RZZ(gamma_k) per edge and
    RX(2*beta_k) per node, terminal MEASURE."""
    if p < 1:
        raise ValueError("need at least one QAOA layer")
    gammas, betas = list(gammas), list(betas)
    if len(gammas) != p or len(betas) != p:
        raise ValueError("need one gamma and one beta per layer")
    nodes = range(graph.num_nodes)
    gates = [Gate(GateKind.H, (q,)) for q in nodes]
    weights = graph.weights or (1.0,) * len(graph.edges)
    for k in range(p):
        gates += [
            Gate(GateKind.RZZ, (a, b), (float(gammas[k] * w),))
            for (a, b), w in zip(graph.edges, weights)
        ]
        gates += [Gate(GateKind.RX, (q,), (float(2.0 * betas[k]),)) for q in nodes]
    if measure:
        gates += [Gate(GateKind.MEASURE, (q,)) for q in nodes]
    return Circuit(graph.num_nodes, tuple(gates))


def qaoa_angles(p: int, seed: int) -> tuple[list[float], list[float]]:
    import numpy as np

    rng = np.random.default_rng(seed)
    gammas = [float(g) for g in rng.uniform(0.0, 2.0 * np.pi, size=p)]
    betas = [float(b) for b in rng.uniform(0.0, np.pi, size=p)]
    return gammas, betas


# Steane-code |+>_L preparation. The X-generator matrix in reduced row-echelon
# form gives one H per pivot qubit and CXs onto the rest of each row's support.
_STEANE_PREP_ROWS = (
    (0, (5, 6)),
    (1, (4, 6)),
    (2, (4, 5)),
    (3, (4, 5, 6)),
)

STEANE_X_STABILIZERS = ("IIIXXXX", "IXXIIXX", "XIXIXIX")
STEANE_Z_STABILIZERS = ("IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")


def gen_steane_prep() -> Circuit:
    """7-qubit Steane-code |+>_L preparation circuit."""
    gates = [Gate(GateKind.H, (pivot,)) for pivot, _ in _STEANE_PREP_ROWS]
    gates += [
        Gate(GateKind.CX, (pivot, t)) for pivot, rest in _STEANE_PREP_ROWS for t in rest
    ]
    return Circuit(7, tuple(gates))


# ---------------------------------------------------------------------------
# Benchmark spec mini-grammar:  family:params  (e.g. ghz:80:fountain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    num_qubits: int
    chain: str = "fountain"
    layers: int = 1
    num_terms: int = 10
    seed: int = 0

    def materialize(self):
        """Return a Circuit or PauliTermFile for this spec."""
        if self.family == "ghz":
            return gen_ghz(self.num_qubits, self.chain)
        if self.family == "ucc":
            return gen_ucc_random(self.num_qubits, self.num_terms, self.seed)
        gammas, betas = qaoa_angles(self.layers, self.seed)
        if self.family in ("qaoa-sk", "po"):
            return gen_qaoa(complete_graph(self.num_qubits), self.layers, gammas, betas)
        if self.family == "qaoa-pl":
            return gen_qaoa(
                power_law_graph(self.num_qubits, self.seed), self.layers, gammas, betas
            )
        raise ValueError(f"unknown benchmark family {self.family!r}")


def parse_benchmark(text: str, seed: int = 0) -> BenchmarkSpec:
    """Parse `family:params`:

    ghz:<n>[:chain]   ucc:<n>[:terms]   qaoa-sk:<n>[:p]
    qaoa-pl:<n>[:p]   po:<n>[:p]
    """
    parts = text.split(":")
    family = parts[0].lower()
    if family not in ("ghz", "ucc", "qaoa-sk", "qaoa-pl", "po"):
        raise ValueError(f"unknown benchmark family {family!r}")
    if len(parts) < 2:
        raise ValueError(f"benchmark {text!r} needs a qubit count")
    if len(parts) > 3:
        raise ValueError(f"benchmark {text!r} takes at most one field after the qubit count")
    n = int(parts[1])
    if n < 1:
        raise ValueError(f"benchmark {text!r} needs at least one qubit")
    if family == "ghz":
        chain = parts[2] if len(parts) > 2 else "fountain"
        if chain not in CHAINS:
            raise ValueError(f"unknown chain {chain!r}")
        return BenchmarkSpec(family, n, chain=chain, seed=seed)
    if family == "ucc":
        terms = int(parts[2]) if len(parts) > 2 else 10
        if terms < 0:
            raise ValueError(f"benchmark {text!r} needs a non-negative term count")
        return BenchmarkSpec(family, n, num_terms=terms, seed=seed)
    layers = int(parts[2]) if len(parts) > 2 else 1
    if layers < 1:
        raise ValueError(f"benchmark {text!r} needs at least one layer")
    return BenchmarkSpec(family, n, layers=layers, seed=seed)
