"""Tests of the benchmark's own generators and references.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

from zonec import frontend, oracle, rewrite  # noqa: E402
from zonec.ir import Circuit, Gate, GateKind, PauliTerm, Zone  # noqa: E402
from zonec.scheduler import Event, EventKind, Timeline  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def _without_measure(c: Circuit) -> Circuit:
    return Circuit(c.num_qubits, tuple(g for g in c.gates if g.kind is not GateKind.MEASURE))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,p", [(3, 1), (5, 2), (8, 3), (12, 2)])
def test_qasm_text_parses_to_expected_gate_count(seed, n, p):
    rng = random.Random(seed)
    edges = workloads.dense_edges(rng, n, workloads.QASM_DENSITY)
    src = workloads.qaoa_input(rng, n, p, edges, (1.0,) * len(edges))
    circuit = frontend.parse_qasm(src.qasm())
    kinds = [g.kind for g in circuit.gates]
    assert len(circuit.gates) == 3 * len(edges) * p + n * p + n + n == src.qasm_gate_count()
    assert kinds.count(GateKind.MEASURE) == n
    assert kinds.count(GateKind.CX) == 2 * len(edges) * p
    assert kinds.count(GateKind.RZ) == len(edges) * p


@pytest.mark.parametrize("label", ["ZZ", "XY", "YZX", "XIZY", "IYIX", "ZIIZ"])
def test_pauli_reference_matches_path_synthesis(label):
    theta = 0.1 + 0.7 * len(label) + 0.3 * label.count("Y")
    ref = reference.pauli_unitary(workloads.PauliInput(len(label), ((label, theta),)))
    u = oracle.unitary_of(rewrite.synth_pauli_path(PauliTerm(label, theta)))
    assert reference.equal_up_to_phase(u, ref)
    assert not reference.equal_up_to_phase(u, reference.pauli_unitary(
        workloads.PauliInput(len(label), ((label, theta + 0.5),))))


def test_pauli_reference_orders_terms_first_applied_rightmost():
    terms = (("XZ", 0.4), ("YY", 1.3), ("ZI", 2.2))
    ref = reference.pauli_unitary(workloads.PauliInput(2, terms))
    gates = tuple(g for label, theta in terms
                  for g in rewrite.synth_pauli_path(PauliTerm(label, theta)).gates)
    assert reference.equal_up_to_phase(oracle.unitary_of(Circuit(2, gates)), ref)


@pytest.mark.parametrize("seed", range(3))
def test_qaoa_reference_matches_native_circuit(seed):
    rng = random.Random(seed)
    n = 5
    edges = workloads.power_law_edges(rng, n)
    src = workloads.qaoa_input(rng, n, 2, edges, tuple(rng.uniform(0.1, 1.0) for _ in edges))
    circuit = frontend.gen_qaoa(frontend.Graph(n, src.edges, src.weights), 2, src.gammas, src.betas)
    assert reference.equal_up_to_phase(oracle.unitary_of(_without_measure(circuit)),
                                       reference.qaoa_unitary(src))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a, b = workloads.build(workload, 3), workloads.build(workload, 3)
    assert a == b
    assert len(a) == 40  # latency_p75_s is named for ten instances above it
    assert a != workloads.build(workload, 4)


def test_power_law_edges_are_simple():
    edges = workloads.power_law_edges(random.Random(1), 30)
    assert len(edges) == len(set(edges)) == 3 + 2 * 27
    assert all(a < b for a, b in edges)


def _pulse(kind, qubits, start):
    return Event(kind, tuple(qubits), start, 1.0)


def _replay(gates, shuttle, sites):
    program = rewrite.ZoneStepProgram(4, (rewrite.ZoneStep(Zone.ENTANGLING, tuple(gates)),))
    events = (_pulse(EventKind.SHUTTLE, shuttle, 0.0),
              _pulse(EventKind.PULSE_2Q, sorted({q for g in gates for q in g.qubits}), 1.0))
    timeline = Timeline(4, events, 2.0, {}, {}, {}, ())
    return reference.aod_order_violations(program, timeline, sites)


def test_aod_replay_flags_crossing_movers_only():
    sites = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    parallel = [Gate(GateKind.CZ, (0, 2)), Gate(GateKind.CZ, (1, 3))]
    assert _replay(parallel, (0, 1), sites) == (0, 1)  # both move down one row
    crossed = [Gate(GateKind.CZ, (0, 3)), Gate(GateKind.CZ, (1, 2))]
    assert _replay(crossed, (0, 1), sites) == (1, 1)  # columns swap order


def test_machine_metrics_repeat_across_processes():
    names = ("machine_time_s", "ld_st", "neg_log10_fidelity", "phys_gates")
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "qaoa-rzz", "--seed", "0",
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        results.append([metrics[n]["value"] for n in names])
    assert results[0] == results[1]
    assert all(math.isfinite(v) and v > 0 for v in results[0])
