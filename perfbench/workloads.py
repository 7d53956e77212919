"""Seeded input generators and instance lists for the zonec benchmark.

Every input is drawn from ``random.Random`` seeded with a string built from
the workload name, the benchmark seed and the input's index, so the inputs
depend on the seed alone and never on zonec's own generators. The program
under test only receives what is generated here: Pauli-term file text,
OpenQASM text, or a graph with QAOA angles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("ucc-pauli", "qaoa-rzz", "qasm-idiom")


@dataclass(frozen=True)
class PauliInput:
    """A Pauli-term file: terms applied in order, each exp(-i*theta/2 * P)."""

    num_qubits: int
    terms: tuple[tuple[str, float], ...]

    def text(self) -> str:
        lines = [f"qubits {self.num_qubits}"]
        lines += [f"{label} {theta!r}" for label, theta in self.terms]
        return "\n".join(lines) + "\n"

    @property
    def entangling_terms(self) -> int:
        """Terms of weight two or more."""
        return sum(1 for label, _ in self.terms if len(label) - label.count("I") >= 2)


@dataclass(frozen=True)
class QaoaInput:
    """QAOA on a weighted graph: H on every qubit, then per layer k a ZZ
    rotation by gammas[k] * w on every edge and RX(2 * betas[k]) on every
    qubit, then MEASURE on every qubit."""

    num_qubits: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    @property
    def layers(self) -> int:
        return len(self.gammas)

    @property
    def zz_count(self) -> int:
        return len(self.edges) * self.layers

    def qasm(self) -> str:
        """OpenQASM 2.0 text with every ZZ rotation written as the
        ``cx a,b; rz(t) b; cx a,b`` idiom. Each rz angle is written as a
        multiple of pi so the angle expression evaluator is exercised."""
        n = self.num_qubits
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
        lines += [f"h q[{q}];" for q in range(n)]
        for gamma, beta in zip(self.gammas, self.betas):
            for (a, b), w in zip(self.edges, self.weights):
                lines.append(f"cx q[{a}],q[{b}];")
                lines.append(f"rz({gamma * w / math.pi!r}*pi) q[{b}];")
                lines.append(f"cx q[{a}],q[{b}];")
            lines += [f"rx({2.0 * beta!r}) q[{q}];" for q in range(n)]
        lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
        return "\n".join(lines) + "\n"

    def qasm_gate_count(self) -> int:
        """Gates the idiom-form text parses to, MEASUREs included."""
        n, p = self.num_qubits, self.layers
        return 3 * len(self.edges) * p + n * p + n + n


@dataclass(frozen=True)
class Instance:
    """One compile of one input in one mode under one operation policy."""

    label: str
    input_id: int
    source: PauliInput | QaoaInput
    mode: str
    policy: str


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_pauli_input(rng: random.Random, n: int, num_terms: int) -> PauliInput:
    """Random UCC-style terms with a fixed weight profile: term j acts on a
    random set of round(n/2 + (n/2) * j/(num_terms-1)) qubits, each X, Y or
    Z at random, with an angle uniform over (0, 2*pi). Fixing the weights
    keeps each file's compile cost from swinging with the seed."""
    terms = []
    for j in range(num_terms):
        weight = round(n / 2 + (n / 2) * j / max(1, num_terms - 1))
        chars = ["I"] * n
        for q in rng.sample(range(n), weight):
            chars[q] = rng.choice("XYZ")
        terms.append(("".join(chars), rng.uniform(0.0, 2.0 * math.pi)))
    return PauliInput(n, tuple(terms))


def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def power_law_edges(rng: random.Random, n: int, m: int = 2) -> tuple[tuple[int, int], ...]:
    """Preferential attachment: each new node joins m distinct earlier nodes
    chosen with probability proportional to degree."""
    edges = list(complete_edges(m + 1))
    ends = [q for e in edges for q in e]  # node repeated once per incident edge
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((t, v))
            ends += [t, v]
    return tuple(edges)


def dense_edges(rng: random.Random, n: int, density: float) -> tuple[tuple[int, int], ...]:
    """A uniformly random graph with exactly round(density * n(n-1)/2) edges."""
    pairs = complete_edges(n)
    return tuple(sorted(rng.sample(pairs, round(density * len(pairs)))))


def qaoa_input(rng: random.Random, n: int, p: int, edges, weights) -> QaoaInput:
    gammas = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(p))
    betas = tuple(rng.uniform(0.0, math.pi) for _ in range(p))
    return QaoaInput(n, tuple(edges), tuple(weights), gammas, betas)


# Suites of 40 instances: a ladder of small sizes (the ones with at most 10
# qubits get a full unitary check against the independent reference), then
# blocks of equal-shaped inputs that differ only in their random draw. The
# blocks are sized so that, in the sorted instance times, the median (the
# 20th and 21st) and the 75th percentile (the 30th, the highest one with ten
# instances above it) each fall inside a block of like instances. On a
# smooth ladder those order statistics are single instances that sit between
# sizes, and they swing with every seed and every change of host speed.
UCC_SUITE = (((4, 4), 1), ((5, 5), 1), ((6, 6), 1), ((7, 6), 1), ((8, 6), 1),
             ((14, 14), 7), ((20, 20), 8))
# ((qubits, terms), files), each file compiled in standard and mantra mode
QAOA_SUITE = ((("sk", 6, 1), 1), (("po", 7, 2), 1), (("pl", 8, 2), 1), (("sk", 8, 1), 1),
              (("sk", 9, 2), 1), (("pl", 20, 1), 1), (("pl", 30, 1), 1),
              (("pl", 40, 2), 6), (("po", 24, 2), 4), (("sk", 36, 2), 3))
# ((graph family, qubits, layers), inputs), each under policies type1 and type2
QASM_SUITE = (((4, 1), 2), ((5, 1), 2), ((6, 1), 2), ((6, 2), 2), ((7, 1), 2), ((7, 2), 2),
              ((8, 2), 2), ((12, 2), 12), ((18, 2), 8), ((24, 2), 6))
# ((qubits, layers), graphs)
QASM_DENSITY = 0.5


def _expand(suite):
    return [shape for shape, count in suite for _ in range(count)]


RUN_STRIDE = 7  # run order visits the suite at this stride, coprime to its size


def build(workload: str, seed: int) -> list[Instance]:
    """The instance list of a workload, in run order, for a seed. The run
    order interleaves the suite's blocks, so that a block's instances are
    not all timed during one stretch of host speed."""
    out: list[Instance] = []
    if workload == "ucc-pauli":
        for idx, (n, terms) in enumerate(_expand(UCC_SUITE)):
            src = random_pauli_input(_rng(workload, seed, idx), n, terms)
            for mode in ("standard", "mantra"):
                out.append(Instance(f"ucc:{n}:{terms}#{idx}/{mode}", idx, src, mode, "type1"))
    elif workload == "qaoa-rzz":
        for idx, (family, n, p) in enumerate(_expand(QAOA_SUITE)):
            rng = _rng(workload, seed, idx)
            if family == "pl":
                edges = power_law_edges(rng, n)
                weights = (1.0,) * len(edges)
            else:
                edges = complete_edges(n)
                if family == "sk":
                    weights = tuple(rng.choice((-1.0, 1.0)) for _ in edges)
                else:
                    weights = tuple(rng.uniform(0.1, 1.0) for _ in edges)
            src = qaoa_input(rng, n, p, edges, weights)
            for policy in ("type1", "type2"):
                out.append(Instance(f"qaoa-{family}:{n}:{p}#{idx}/{policy}", idx, src, "mantra", policy))
    elif workload == "qasm-idiom":
        for idx, (n, p) in enumerate(_expand(QASM_SUITE)):
            rng = _rng(workload, seed, idx)
            edges = dense_edges(rng, n, QASM_DENSITY)
            src = qaoa_input(rng, n, p, edges, (1.0,) * len(edges))
            out.append(Instance(f"qasm:{n}:{p}#{idx}", idx, src, "mantra", "type1"))
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return [out[(i * RUN_STRIDE) % len(out)] for i in range(len(out))]
