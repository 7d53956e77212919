"""Acceptance suite: one test per release criterion, each emitting a single
PASS/FAIL line so the run log doubles as a checklist."""

import math
import pathlib
import random
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from zonec.arch import MachineConfig, Policy
from zonec.cost import breakdown, fidelity, physical_gate_count, run
from zonec.frontend import (
    STEANE_X_STABILIZERS,
    STEANE_Z_STABILIZERS,
    gen_ghz,
    gen_steane_prep,
    gen_ucc_random,
    parse_benchmark,
)
from zonec.ir import Circuit, Gate, GateKind, PauliTerm
from zonec.oracle import (
    adiabatic_matrix,
    cphase_matrix,
    equiv_up_to_global_phase,
    lp_matrix,
    pauli_expectation,
    rzz_matrix,
    statevector_of,
    unitary_of,
)
from zonec.rewrite import (
    MODES,
    PipelineOptions,
    adiabatic_phases,
    cancel_hadamard_pairs,
    cphase_phi,
    gate_based_swap_reference,
    lower_cx_to_cz,
    lower_rzz_to_cx,
    lower_swap,
    mantra_pipeline,
    substitute_rzz,
    synth_pauli_fountain,
    synth_pauli_path,
)
from zonec.scheduler import count_ld_st

DATA = pathlib.Path(__file__).parent / "data"
UCC_SEED = 10  # fixed suite seed: every generated term is entangling-grade

RESULTS: list = []  # echoed by conftest in the terminal summary


def report(number, ok, text):
    marker = "PASS" if ok else "FAIL"
    line = f"[{marker}] criterion {number:2d}: {text}"
    print(line)
    RESULTS.append(line)
    assert ok, f"criterion {number} failed: {text}"


def simulate(source, mode, policy=Policy.TYPE1, x_basis=False, seed=0):
    cfg = replace(MachineConfig(), policy=policy)
    if isinstance(source, str):
        source = parse_benchmark(source, seed=seed).materialize()
    result = run(source, PipelineOptions(mode=mode, x_basis=x_basis), cfg)
    return result.timeline, result.program, cfg


def test_criterion_01_protocol_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for gamma, phi2 in zip(rng.uniform(-2 * np.pi, 2 * np.pi, 1000),
                           rng.uniform(-2 * np.pi, 2 * np.pi, 1000)):
        target = rzz_matrix(gamma)
        for m in (lp_matrix(gamma) @ cphase_matrix(cphase_phi(gamma)),
                  adiabatic_matrix(*adiabatic_phases(gamma, phi2)) @ lp_matrix(gamma)):
            phase = m[0, 0] / target[0, 0]
            worst = max(worst, float(np.abs(m - phase * target).max()))
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"protocol recipes match RZZ, max err {worst:.2e} in {elapsed:.2f}s")


def _random_circuit(rng, n, depth):
    from zonec.ir import NUM_PARAMS

    kinds = [GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ, GateKind.CX,
             GateKind.CZ, GateKind.SWAP, GateKind.RZZ]
    gates = []
    for _ in range(depth):
        kind = rng.choice(kinds)
        if kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP, GateKind.RZZ):
            qubits = tuple(rng.sample(range(n), 2))
        else:
            qubits = (rng.randrange(n),)
        params = tuple(rng.uniform(-math.pi, math.pi)
                       for _ in range(NUM_PARAMS[kind]))
        gates.append(Gate(kind, qubits, params))
    return Circuit(n, tuple(gates))


def test_criterion_02_rewrite_soundness():
    t0 = time.monotonic()
    rng = random.Random(2)
    failures = swap_samples = 0
    for _ in range(500):
        c = _random_circuit(rng, rng.randint(2, 8), rng.randint(1, 12))
        ref = unitary_of(c)
        for pass_ in (lower_cx_to_cz, lower_rzz_to_cx, cancel_hadamard_pairs,
                      substitute_rzz):
            if not equiv_up_to_global_phase(unitary_of(pass_(c)), ref, 1e-9):
                failures += 1
        # Lowering moves the SWAPs to the end as a relabelling.
        swaps = [g for g in c.gates if g.kind is GateKind.SWAP]
        swap_samples += bool(swaps)
        lowered, _ = lower_swap(c)
        if not equiv_up_to_global_phase(
            unitary_of(Circuit(c.num_qubits, lowered.gates + tuple(swaps))), ref, 1e-9
        ):
            failures += 1
        for mode in MODES:
            prog = mantra_pipeline(c, PipelineOptions(mode=mode))
            flat = Circuit(c.num_qubits, prog.flatten().gates + tuple(swaps))
            if not equiv_up_to_global_phase(unitary_of(flat), ref, 1e-9):
                failures += 1
    for _ in range(200):
        n = rng.randint(2, 8)
        label = "".join(rng.choice("IXYZ") for _ in range(n))
        if set(label) == {"I"}:
            label = "Z" + label[1:]
        term = PauliTerm(label, rng.uniform(-math.pi, math.pi))
        ref = unitary_of(synth_pauli_path(term))
        if not equiv_up_to_global_phase(
            unitary_of(synth_pauli_fountain(term)), ref, 1e-9
        ):
            failures += 1
        prog = mantra_pipeline(
            Circuit(n, synth_pauli_fountain(term).gates), PipelineOptions()
        )
        if not equiv_up_to_global_phase(unitary_of(prog.flatten()), ref, 1e-9):
            failures += 1
    elapsed = time.monotonic() - t0
    report(2, failures == 0 and elapsed < 120.0,
           f"all passes unitary-preserving ({failures} failures, "
           f"{swap_samples} of 500 samples SWAP-bearing, {elapsed:.1f}s)")


def test_criterion_03_ghz_closed_forms():
    ok = True
    detail = []
    for n in (40, 80, 120):
        tl, _, _ = simulate(f"ghz:{n}:path", "standard")
        got = sum(count_ld_st(tl))
        ok &= got == 2 * (n - 1)
        detail.append(f"path{n}={got}")
    for n in (80, 120):
        tl, _, _ = simulate(f"ghz:{n}:fountain", "mantra")
        got = sum(count_ld_st(tl))
        ok &= got == 2
        detail.append(f"fountain{n}={got}")
        tl, _, _ = simulate(f"ghz:{n}:fountain", "mantra", x_basis=True)
        got = sum(count_ld_st(tl))
        ok &= got == 0
        detail.append(f"xbasis{n}={got}")
    report(3, ok, "GHZ LD/ST closed forms: " + " ".join(detail))


def test_criterion_04_per_term_constancy():
    counts = []
    for n in (5, 10, 15):
        tl, _, _ = simulate(f"ucc:{n}:10", "mantra", seed=UCC_SEED)
        counts.append(sum(count_ld_st(tl)))
    report(4, counts == [40, 40, 40],
           f"mantra UCC 10 terms constant LD/ST: {counts}")


def test_criterion_05_qaoa_layer_law():
    ok = True
    detail = []
    for n, p in ((6, 1), (8, 2), (12, 3), (20, 4)):
        tl, _, _ = simulate(f"qaoa-sk:{n}:{p}", "mantra", seed=3)
        got = count_ld_st(tl)
        ok &= got == (p, p)
        detail.append(f"n{n}p{p}={got[0] + got[1]}")
    report(5, ok, "mantra QAOA 2p LD/ST per run: " + " ".join(detail))


def test_criterion_06_fountain_reduction():
    t0 = time.monotonic()
    reductions = []
    for n in (12, 14, 16, 18, 20, 22):
        pf = gen_ucc_random(n, 10, seed=n)
        m = sum(count_ld_st(simulate(pf, "mantra")[0]))
        s = sum(count_ld_st(simulate(pf, "standard")[0]))
        reductions.append(1.0 - m / s)
    mean = float(np.mean(reductions))
    elapsed = time.monotonic() - t0
    report(6, mean >= 0.75 and elapsed < 60.0,
           f"mean LD/ST reduction {mean:.1%} (target >=75%, {elapsed:.1f}s)")


def test_criterion_07_alignment_benefit():
    c = gen_ghz(7, chain="parallel")
    unaligned = mantra_pipeline(c, PipelineOptions(mode="standard"))
    aligned = mantra_pipeline(c, PipelineOptions(mode="mantra"))
    u, a = unaligned.boundary_crossings(), aligned.boundary_crossings()
    report(7, (u, a) == (6, 4),
           f"7-qubit parallel GHZ crossings unaligned={u} aligned={a}")


def test_criterion_08_swap_dominance():
    ok = True
    detail = []
    for n, (a, b) in ((4, (0, 1)), (8, (2, 5)), (16, (0, 7))):
        ref = gate_based_swap_reference(n, a, b)
        tl, _, _ = simulate(ref, "standard")
        gate_ld_st = sum(count_ld_st(tl))
        swap = Circuit(n, (Gate(GateKind.SWAP, (a, b)),))
        runs = {mode: simulate(swap, mode)[0] for mode in MODES}
        swap_ld_st = {mode: sum(count_ld_st(t)) for mode, t in runs.items()}
        ok &= gate_ld_st == 6 and set(swap_ld_st.values()) == {0}
        ok &= all(t.makespan_us < tl.makespan_us for t in runs.values())
        detail.append(
            f"n{n}: gate {gate_ld_st} LD/ST {tl.makespan_us:.0f}us vs relabelled "
            f"{swap_ld_st['standard']}/{swap_ld_st['mantra']} LD/ST "
            f"{runs['standard'].makespan_us:.1f}/{runs['mantra'].makespan_us:.1f}us"
        )
    report(8, ok, "relabelled SWAP (standard/mantra) dominates; " + "; ".join(detail))


def test_criterion_09_breakdown_plausibility():
    suite = ("ghz:40:path", "ucc:10:10", "qaoa-sk:8:4")
    ok = True
    detail = []
    for bench in suite:
        t1, _, _ = simulate(bench, "standard", policy=Policy.TYPE1, seed=UCC_SEED)
        t2, _, _ = simulate(bench, "standard", policy=Policy.TYPE2, seed=UCC_SEED)
        b1, b2 = breakdown(t1), breakdown(t2)
        s1 = b1.load_store_us / b1.makespan_us
        s2 = b2.load_store_us / b2.makespan_us
        dominated = (b2.trap_transfer_us + b2.shuttling_us) > b2.load_store_us
        ok &= s1 > 0.50 and s2 < 0.05 and dominated
        detail.append(f"{bench}: type1 {s1:.0%} type2 {s2:.1%}")
    report(9, ok, "LD/ST time share: " + "; ".join(detail))


def test_criterion_10_fidelity_ordering():
    suite = (
        ("ghz:40:path", "ghz:40:fountain"),
        ("ghz:80:path", "ghz:80:fountain"),
        ("ghz:120:path", "ghz:120:fountain"),
        ("ucc:5:10", None),
        ("ucc:10:10", None),
        ("ucc:15:10", None),
        ("qaoa-sk:8:2", None),
        ("qaoa-pl:12:2", None),
    )
    ok = True
    detail = []
    for std_bench, man_bench in suite:
        man_bench = man_bench or std_bench
        ts, ps, cfg = simulate(std_bench, "standard", seed=UCC_SEED)
        tm, pm, _ = simulate(man_bench, "mantra", seed=UCC_SEED)
        fs = fidelity(ts, ps.flatten(), cfg).total
        fm = fidelity(tm, pm.flatten(), cfg).total
        gs = physical_gate_count(ps.flatten(), cfg)
        gm = physical_gate_count(pm.flatten(), cfg)
        ok &= fm >= fs and gm <= gs
        if std_bench.startswith("ghz"):
            ok &= gm == gs  # chain reshaping leaves the gate count unchanged
        detail.append(f"{std_bench}: F {fs:.3f}->{fm:.3f} phys {gs}->{gm}")
    report(10, ok, "mantra never worse; " + "; ".join(detail))


def test_criterion_11_constructor_identities():
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    ok = (
        np.allclose(cphase_matrix(np.pi), cz, atol=1e-12)
        and np.allclose(lp_matrix(0.0), cz, atol=1e-12)
        and np.allclose(rzz_matrix(0.0), np.eye(4), atol=1e-12)
    )
    psi = statevector_of(gen_steane_prep())
    worst = 0.0
    for s in STEANE_X_STABILIZERS + STEANE_Z_STABILIZERS:
        worst = max(worst, abs(pauli_expectation(psi, s) - 1.0))
    ok &= worst < 1e-9
    report(11, ok,
           f"constructor identities + 6 stabilizers (max dev {worst:.1e})")


def test_criterion_12_determinism_golden():
    cases = (
        (["simulate", "--bench", "ghz:40:path", "--mode", "standard",
          "--format", "record"], "golden_ghz40_standard.txt"),
        (["compile", "--bench", "ucc:10:10", "--seed", "10", "--mode", "mantra",
          "--format", "steps"], "golden_ucc10_compile.txt"),
        (["sweep", "--bench", "ghz:{n}:fountain", "--axis", "n=4,8",
          "--modes", "mantra"], "golden_ghz_sweep.csv"),
    )
    ok = True
    for args, golden in cases:
        outs = [
            subprocess.run(
                [sys.executable, "-m", "zonec.cli", *args],
                capture_output=True, text=True,
            ).stdout
            for _ in range(2)
        ]
        expected = (DATA / golden).read_text()
        ok &= outs[0] == outs[1] == expected
    report(12, ok, "CLI reruns byte-identical to golden files")
