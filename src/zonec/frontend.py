"""Circuit frontends: an OpenQASM-2.0 subset parser, Pauli-term files, and the
scalable benchmark generators (GHZ chains, random UCC terms, QAOA, Steane prep).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .ir import (
    ARITY,
    CX,
    MEASURE,
    NUM_PARAMS,
    RX,
    RZZ,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    H,
    PauliTerm,
    PauliTermFile,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

# QASM gate name -> kind; ir.ARITY and ir.NUM_PARAMS give its operand and
# angle counts.
_QASM_GATES = {
    kind.value.lower(): kind
    for kind in (GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ, GateKind.CX,
                 GateKind.CZ, GateKind.SWAP, GateKind.RZZ, GateKind.MEASURE)
}

_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_INCLUDE_RE = re.compile(r'include\s*"[^"]+"')
_STMT_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?\s*(.*)$")  # angles may nest ()
_OPERAND_RE = re.compile(r"^(\w+)\s*\[\s*(\d+)\s*\]$")
_ANGLE_CHARS_RE = re.compile(r"[0-9eE\.\+\-\*/\s\(\)pi]*")


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
    if not _ANGLE_CHARS_RE.fullmatch(expr) or not expr:
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

    Supported: the ``OPENQASM 2.0`` header as the first statement, one qreg,
    any number of cregs, ``include "<file>"`` and ``barrier`` (both skipped),
    gates {h, x, rx, rz, cx, cz, swap, rzz, measure}, no custom gate
    definitions, no classical control. Register names are unique, a barrier's
    operands are the qreg or indices inside it, and a measure's ``->`` target
    must name a declared creg and an index inside it. Three memos, each
    filled only with what passed every check, make a call parse each
    distinct text once: a repeated statement reuses the Gate its first
    occurrence built, a repeated angle argument its value, and a repeated
    gate operand list its qubit indices.
    """
    qreg_name = None
    num_qubits = 0
    creg_sizes: dict[str, int] = {}
    gates: list[Gate] = []
    saw_header = False
    started = False  # a declaration has been read; a gate read shows in gates
    # Statement text -> its Gate, stored only once the statement has passed
    # every check. A repeat is valid wherever its first occurrence was: a gate
    # is accepted only after the single qreg is declared, which cannot change
    # afterwards, and a measure only into a declared creg, which cannot be
    # redeclared. A failing statement is never stored, so each error keeps the
    # line and column of its first occurrence. The angle and operand memos
    # follow the same rule; a barrier's operands may precede the qreg, so
    # they stay outside.
    parsed: dict[str, Gate] = {}
    angles: dict[str, tuple[float]] = {}
    operand_lists: dict[str, tuple[int, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        for stmt in raw.split("//", 1)[0].split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            gate = parsed.get(stmt)
            if gate is not None:
                gates.append(gate)
                continue

            m = _STMT_RE.match(stmt)
            word = m.group(1) if m else None
            kind = _QASM_GATES.get(word)
            if kind is None:
                # Gates are looked up first: no gate name starts with one of
                # these words, so no declaration is mistaken for a gate.
                if stmt.startswith("OPENQASM"):
                    if stmt.split() != ["OPENQASM", "2.0"]:
                        raise ParseError("only OPENQASM 2.0 is supported", lineno)
                    if started or gates:
                        raise ParseError("OPENQASM 2.0 must be the first statement", lineno)
                    saw_header = True
                elif stmt.startswith("qreg"):
                    dm = _QREG_RE.fullmatch(stmt)
                    if not dm:
                        raise ParseError("malformed qreg declaration", lineno)
                    if qreg_name is not None:
                        raise ParseError("only one qreg is supported", lineno)
                    if dm.group(1) in creg_sizes:
                        raise ParseError(f"qreg {dm.group(1)!r} reuses a creg name", lineno)
                    qreg_name, num_qubits = dm.group(1), int(dm.group(2))
                    if num_qubits < 1:
                        raise ParseError("circuit needs at least one qubit", lineno)
                elif stmt.startswith("creg"):
                    dm = _CREG_RE.fullmatch(stmt)
                    if not dm:
                        raise ParseError("malformed creg declaration", lineno)
                    if dm.group(1) in creg_sizes:
                        raise ParseError(f"creg {dm.group(1)!r} declared twice", lineno)
                    if dm.group(1) == qreg_name:
                        raise ParseError(f"creg {dm.group(1)!r} reuses the qreg name", lineno)
                    creg_sizes[dm.group(1)] = int(dm.group(2))
                elif word == "include":
                    if not _INCLUDE_RE.fullmatch(stmt):
                        raise ParseError('expected include "<file>"', lineno)
                elif word == "barrier":
                    if m.group(2) is not None:
                        raise ParseError("barrier takes no arguments", lineno)
                    _qubit_operands(m.group(3), qreg_name, num_qubits, lineno, whole=True)
                elif not m:
                    raise ParseError(f"cannot parse statement {stmt!r}", lineno)
                else:
                    raise ParseError(f"unsupported gate {word!r}", lineno)
                started = True
                continue

            name, arg_text, operand_text = m.group(1), m.group(2), m.group(3)
            if qreg_name is None:
                raise ParseError("gate before qreg declaration", lineno)
            arity = ARITY[kind]

            params: tuple[float, ...] = ()
            if NUM_PARAMS[kind]:
                if arg_text is None:
                    raise ParseError(f"{name} requires an angle argument", lineno)
                params = angles.get(arg_text)
                if params is None:
                    params = angles[arg_text] = (_eval_angle(arg_text, lineno),)
            elif arg_text is not None:
                raise ParseError(f"{name} takes no arguments", lineno)

            arrow = target = ""
            if kind is MEASURE:
                operand_text, arrow, target = operand_text.partition("->")
            operands = operand_lists.get(operand_text)
            if operands is None:
                operands = operand_lists[operand_text] = _qubit_operands(
                    operand_text, qreg_name, num_qubits, lineno)
            if len(operands) != arity:
                raise ParseError(
                    f"{name} takes {arity} operand(s), got {len(operands)}", lineno
                )
            if arrow:
                _check_measure_target(target.strip(), creg_sizes, lineno)
            try:
                gate = Gate(kind, operands, params)
            except CircuitError as e:
                raise ParseError(str(e), lineno) from None
            parsed[stmt] = gate
            gates.append(gate)

    if not saw_header:
        raise ParseError("missing OPENQASM 2.0 header", 1)
    if qreg_name is None:
        raise ParseError("no qreg declared", 1)
    return Circuit(num_qubits, tuple(gates))


def _qubit_operands(
    text: str, qreg_name, num_qubits: int, line: int, whole=False
) -> tuple[int, ...]:
    """Indices of the checked ``q[i]`` operands in ``text``; an error's column
    is the operand's position, and an empty item is malformed. ``whole``
    skips a bare qreg name (a barrier's)."""
    if not text.strip():
        return ()
    operands = []
    for col, tok in enumerate(t.strip() for t in text.split(",")):
        if whole and tok == qreg_name:
            continue
        om = _OPERAND_RE.match(tok)
        if not om:
            raise ParseError(f"malformed operand {tok!r}", line, col)
        reg, idx = om.group(1), int(om.group(2))
        if reg != qreg_name:
            raise ParseError(f"undeclared register {reg!r}", line, col)
        if idx >= num_qubits:
            raise ParseError(f"operand {reg}[{idx}] out of range (size {num_qubits})", line, col)
        operands.append(idx)
    return tuple(operands)


def _check_measure_target(target: str, creg_sizes: dict[str, int], line: int) -> None:
    """A measure's ``-> c[i]`` target must name a declared creg and an index
    inside it. Errors give column 1: the target follows the one operand."""
    tm = _OPERAND_RE.match(target)
    if not tm:
        raise ParseError(f"malformed measure target {target!r}", line, 1)
    reg, idx = tm.group(1), int(tm.group(2))
    if reg not in creg_sizes:
        raise ParseError(f"undeclared creg {reg!r}", line, 1)
    if idx >= creg_sizes[reg]:
        raise ParseError(
            f"measure target {reg}[{idx}] out of range (size {creg_sizes[reg]})", line, 1
        )


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
                _, count = toks
                num_qubits = int(count)
            except ValueError:
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
            terms.append(PauliTerm(label, float(theta)))
        except (ValueError, CircuitError) as e:
            raise ParseError(str(e), lineno) from None
    if num_qubits is None:
        raise ParseError("missing `qubits <n>` header", 1)
    return PauliTermFile(num_qubits, tuple(terms))


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
    gates = [Gate(H, (0,))]
    if chain == "path":
        gates += [Gate(CX, (i, i + 1)) for i in range(n - 1)]
    elif chain == "fountain":
        gates += [Gate(CX, (0, i)) for i in range(1, n)]
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
                gates.append(Gate(CX, (lo, mid)))
                nxt += [(lo, mid), (mid, hi)]
            segments = nxt
    if measure:
        gates += [Gate(MEASURE, (q,)) for q in range(n)]
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
        if self.weights and len(self.weights) != len(self.edges):
            raise ValueError(f"{len(self.weights)} weights for {len(self.edges)} edges")


def complete_graph(n: int) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n, edges)


def power_law_graph(n: int, seed: int) -> Graph:
    """Preferential-attachment graph (Barabasi-Albert style, two edges per
    new node), deterministic per seed."""
    import numpy as np

    m = 2
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


def gen_qaoa(graph: Graph, p: int, gammas, betas) -> Circuit:
    """QAOA circuit: H layer, then per layer RZZ(gamma_k * w) per edge of
    weight w and RX(2*beta_k) per node, terminal MEASURE.

    Tuples are shared: each qubit has one ``(q,)`` for its H, RX and
    MEASURE, each edge's RZZs take the edge itself as operands (a tuple
    made once from it, if it is not one), and each distinct angle has one
    parameter tuple. Angles share a tuple only when their bits agree, so
    0.0 and -0.0 keep their own.
    """
    if p < 1:
        raise ValueError("need at least one QAOA layer")
    gammas, betas = list(gammas), list(betas)
    if len(gammas) != p or len(betas) != p:
        raise ValueError("need one gamma and one beta per layer")
    singles = [(q,) for q in range(graph.num_nodes)]
    pairs = [e if type(e) is tuple else tuple(e) for e in graph.edges]
    weights = graph.weights or (1.0,) * len(pairs)
    # Angle -> its parameter tuple. A zero is keyed by its repr, so -0.0
    # misses 0.0; any other float equals only a float of the same bits.
    shared: dict = {}
    gates = [Gate(H, q) for q in singles]
    for k in range(p):
        gamma = gammas[k]
        for e, w in zip(pairs, weights, strict=True):
            t = float(gamma * w)
            gates.append(Gate(RZZ, e, shared.setdefault(t or repr(t), (t,))))
        t = float(2.0 * betas[k])
        rx = shared.setdefault(t or repr(t), (t,))
        gates += [Gate(RX, q, rx) for q in singles]
    gates += [Gate(MEASURE, q) for q in singles]
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
    """7-qubit Steane-code |+>_L preparation circuit; the scheduler times
    every run's error-correction prefix by its pulse layers."""
    gates = [Gate(H, (pivot,)) for pivot, _ in _STEANE_PREP_ROWS]
    gates += [Gate(CX, (pivot, t)) for pivot, rest in _STEANE_PREP_ROWS for t in rest]
    return Circuit(7, tuple(gates))


# ---------------------------------------------------------------------------
# Benchmark spec mini-grammar:  family:params  (e.g. ghz:80:fountain)
# ---------------------------------------------------------------------------


# Most gates a benchmark may have, checked before it is built. The estimate
# bounds the gates before lowering: 3n for ghz:<n>, 4n per term plus n for
# ucc:<n>:<terms>, and 2n + p(n(n-1)/2 + n) for QAOA and po specs with p
# layers. The largest spec in use, ucc:60:800, estimates 192,060.
MAX_BENCH_GATES = 1_000_000


@dataclass(frozen=True)
class BenchmarkSpec:
    family: str
    num_qubits: int
    estimate: int  # gates before lowering
    build: Callable[[], Circuit | PauliTermFile]  # the bound generator call

    def materialize(self):
        """Return a Circuit or PauliTermFile for this spec; ValueError if its
        gate estimate exceeds ``MAX_BENCH_GATES``."""
        if self.estimate > MAX_BENCH_GATES:
            raise ValueError(
                f"{self.family} benchmark on {self.num_qubits} qubits has about "
                f"{self.estimate} gates, above the cap of {MAX_BENCH_GATES}"
            )
        return self.build()


def _gen_qaoa_benchmark(graph: Callable[[], Graph], layers: int, seed: int) -> Circuit:
    return gen_qaoa(graph(), layers, *qaoa_angles(layers, seed))


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

    def field(i: int, name: str) -> int:
        try:
            return int(parts[i])
        except ValueError:
            raise ValueError(
                f"benchmark {text!r}: {name} {parts[i]!r} is not an integer"
            ) from None

    n = field(1, "qubit count")
    if n < 1:
        raise ValueError(f"benchmark {text!r} needs at least one qubit")
    if family == "ghz":
        chain = parts[2] if len(parts) > 2 else "fountain"
        if chain not in CHAINS:
            raise ValueError(f"unknown chain {chain!r}")
        return BenchmarkSpec(family, n, 3 * n, partial(gen_ghz, n, chain))
    if family == "ucc":
        terms = field(2, "term count") if len(parts) > 2 else 10
        if terms < 0:
            raise ValueError(f"benchmark {text!r} needs a non-negative term count")
        return BenchmarkSpec(family, n, 4 * n * terms + n,
                             partial(gen_ucc_random, n, terms, seed))
    layers = field(2, "layer count") if len(parts) > 2 else 1
    if layers < 1:
        raise ValueError(f"benchmark {text!r} needs at least one layer")
    graph = partial(power_law_graph, n, seed) if family == "qaoa-pl" else partial(complete_graph, n)
    return BenchmarkSpec(family, n, 2 * n + layers * (n * (n - 1) // 2 + n),
                         partial(_gen_qaoa_benchmark, graph, layers, seed))
