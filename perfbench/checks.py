"""Output checks. Each returns a list of failure messages, empty when the
outcome is correct. Every check was run on the seeds listed in
``layer_map.json`` and holds on the program as it stands; known defects
(breakdown categories that do not reconcile with the makespan, AOD order
violations) are counted by the caller instead of checked here."""

from __future__ import annotations

import math

from zonec import oracle
from zonec.ir import Circuit, GateKind

import reference
from workloads import PauliInput

REL = 1e-9  # timeline sums
REL_FIDELITY = 1e-6


def check_outcome(workload: str, inst, out) -> list[str]:
    errs = []
    src = inst.source
    tl = out.timeline
    mk = tl.makespan_us
    for q in range(tl.num_qubits):
        total = tl.t_in_us.get(q, 0.0) + tl.t_out_us.get(q, 0.0)
        if not math.isclose(total, mk, rel_tol=REL):
            errs.append(f"qubit {q}: t_in + t_out = {total!r} != makespan {mk!r}")
    late = [e for e in tl.events if e.end_us > mk * (1.0 + REL)]
    if late:
        errs.append(f"{len(late)} events end after the makespan, first {late[0]}")

    fr = out.fidelity
    if not 0.0 < fr.total <= 1.0:
        errs.append(f"fidelity {fr.total!r} outside (0, 1]")
    for name, values in (("factors", fr.factors.values()), ("per_qubit", fr.per_qubit.values())):
        prod = math.prod(values)
        if not math.isclose(prod, fr.total, rel_tol=REL_FIDELITY):
            errs.append(f"product of {name} {prod!r} != fidelity {fr.total!r}")

    if workload == "ucc-pauli":
        parsed = tuple((t.label, t.theta) for t in out.source.terms)
        if parsed != src.terms or out.source.num_qubits != src.num_qubits:
            errs.append("parsed Pauli terms differ from the generated file")
        if inst.mode == "mantra" and out.loads + out.stores > 4 * src.entangling_terms:
            errs.append(f"mantra ld_st {out.loads + out.stores} > 4 x "
                        f"{src.entangling_terms} entangling terms")
        return errs
    n, p = src.num_qubits, src.layers
    expected = src.qasm_gate_count() if workload == "qasm-idiom" else n + src.zz_count + n * p + n
    if len(out.source.gates) != expected:
        errs.append(f"input read as {len(out.source.gates)} gates, expected {expected}")
    if workload == "qaoa-rzz" and inst.policy == "type1" and (out.loads, out.stores) != (p, p):
        errs.append(f"type1 mantra QAOA (loads, stores) = {(out.loads, out.stores)}, "
                    f"expected {(p, p)}")
    return errs


def check_mantra_not_worse(mantra, standard) -> list[str]:
    """Mantra needs no more load/store batches than standard on one input."""
    m, s = mantra.loads + mantra.stores, standard.loads + standard.stores
    return [] if m <= s else [f"mantra ld_st {m} > standard ld_st {s}"]


class UnitaryCheck:
    """Program unitary (MEASURE removed) against the source's reference
    unitary, up to global phase, for instances of at most
    ``oracle.MAX_UNITARY_QUBITS`` qubits. Results are shared between
    instances with equal programs on the same input."""

    def __init__(self):
        self._ref: dict[int, object] = {}
        self._done: dict[int, list] = {}  # input id -> [(steps, errors)]

    def __call__(self, inst, out) -> list[str]:
        src = inst.source
        if src.num_qubits > oracle.MAX_UNITARY_QUBITS:
            return []
        for steps, errs in self._done.get(inst.input_id, []):
            if steps == out.program.steps:
                return errs
        if inst.input_id not in self._ref:
            ref = (reference.pauli_unitary if isinstance(src, PauliInput)
                   else reference.qaoa_unitary)(src)
            self._ref[inst.input_id] = ref
        gates = tuple(g for g in out.flat.gates if g.kind is not GateKind.MEASURE)
        u = oracle.unitary_of(Circuit(out.flat.num_qubits, gates))
        ok = reference.equal_up_to_phase(u, self._ref[inst.input_id])
        errs = [] if ok else ["program unitary differs from the reference"]
        self._done.setdefault(inst.input_id, []).append((out.program.steps, errs))
        return errs
