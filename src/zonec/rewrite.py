"""Rewriting passes: CX lowering, Hadamard-pair cancellation, fountain/path
Pauli-exponential synthesis, native ZZ-protocol substitution, SWAP
elimination by relabelling, and zone-step alignment.

Every pass preserves the circuit unitary up to global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import protocols
from .ir import (
    GATE_ZONE,
    Circuit,
    Gate,
    GateKind,
    PauliTerm,
    PauliTermFile,
    Zone,
    layer_indices,
)

# ---------------------------------------------------------------------------
# Zone-step program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneStep:
    zone: Zone
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if g.zone is not self.zone:
                raise ValueError(
                    f"{g.kind.value} (zone {g.zone.value}) in a "
                    f"{self.zone.value} step"
                )


@dataclass(frozen=True)
class ZoneStepProgram:
    num_qubits: int
    steps: tuple[ZoneStep, ...]
    x_basis: bool = False

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.zone is b.zone:
                raise ValueError("adjacent steps share a zone (not maximally merged)")

    def flatten(self) -> Circuit:
        gates = tuple(g for step in self.steps for g in step.gates)
        return Circuit(self.num_qubits, gates)

    def boundary_crossings(self) -> int:
        """Storage <-> entangling boundaries in the step sequence."""
        pair = {Zone.STORAGE, Zone.ENTANGLING}
        return sum(
            1
            for a, b in zip(self.steps, self.steps[1:])
            if {a.zone, b.zone} == pair
        )


def _merge_steps(raw: list[tuple[Zone, list[Gate]]]) -> tuple[ZoneStep, ...]:
    merged: list[tuple[Zone, list[Gate]]] = []
    for zone, gates in raw:
        if not gates:
            continue
        if merged and merged[-1][0] is zone:
            merged[-1][1].extend(gates)
        else:
            merged.append((zone, list(gates)))
    return tuple(ZoneStep(zone, tuple(gates)) for zone, gates in merged)


# ---------------------------------------------------------------------------
# Lowering and peephole passes
# ---------------------------------------------------------------------------


def lower_cx_to_cz(circuit: Circuit) -> Circuit:
    """Replace every CX(c,t) by H(t); CZ(c,t); H(t)."""
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.CX:
            c, t = g.qubits
            h = Gate(GateKind.H, (t,))  # gates are immutable, so one serves twice
            gates += (h, Gate(GateKind.CZ, (c, t)), h)
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def lower_rzz_to_cx(circuit: Circuit) -> Circuit:
    """Replace every RZZ(g) by CX; RZ(g); CX (standard-execution template)."""
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.RZZ:
            cx = Gate(GateKind.CX, g.qubits)
            gates += (cx, Gate(GateKind.RZ, (g.qubits[1],), g.params), cx)
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def cancel_hadamard_pairs(circuit: Circuit) -> Circuit:
    """Remove adjacent H;H pairs on the same qubit (no intervening gate on
    that qubit).

    One pass reaches the fixed point: it pairs off each run of H gates on a
    qubit, leaving at most one, and keeps every gate that ends a run, so no
    new adjacent pair forms.
    """
    # last pending H index per qubit, invalidated by any touching gate
    pending: dict[int, int] = {}
    kill: set[int] = set()
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.H:
            q = g.qubits[0]
            if q in pending:
                kill.update((pending.pop(q), i))
            else:
                pending[q] = i
        else:
            for q in g.qubits:
                pending.pop(q, None)
    gates = tuple(g for i, g in enumerate(circuit.gates) if i not in kill)
    return Circuit(circuit.num_qubits, gates)


# ---------------------------------------------------------------------------
# Pauli-exponential synthesis
# ---------------------------------------------------------------------------


_HALF_PI = 1.5707963267948966


def _basis_change(term: PauliTerm, invert: bool) -> list[Gate]:
    gates = []
    for q, ch in zip(term.support, (term.label[i] for i in term.support)):
        if ch == "X":
            gates.append(Gate(GateKind.H, (q,)))
        elif ch == "Y":
            gates.append(Gate(GateKind.RX, (q,), (-_HALF_PI if invert else _HALF_PI,)))
    return gates


def synth_pauli_fountain(term: PauliTerm) -> Circuit:
    """Full exponential exp(-i*theta/2 * P) with a fountain-shaped CZ tree.

    All CZs share the lowest-index non-I qubit as target, so the inner
    Hadamards between CZs cancel and each half-tree runs in a single
    entangling-zone visit. CZs are applied in ascending qubit order.
    """
    n = term.num_qubits
    if term.weight == 0:
        return Circuit(n)  # global phase only
    target = term.support[0]
    others = term.support[1:]
    gates: list[Gate] = _basis_change(term, invert=False)
    if others:
        gates.append(Gate(GateKind.H, (target,)))
        for q in others:
            gates.append(Gate(GateKind.CZ, (q, target)))
        gates.append(Gate(GateKind.H, (target,)))
    gates.append(Gate(GateKind.RZ, (target,), (term.theta,)))
    if others:
        gates.append(Gate(GateKind.H, (target,)))
        for q in reversed(others):
            gates.append(Gate(GateKind.CZ, (q, target)))
        gates.append(Gate(GateKind.H, (target,)))
    gates += _basis_change(term, invert=True)
    return cancel_hadamard_pairs(Circuit(n, tuple(gates)))


def synth_pauli_path(term: PauliTerm) -> Circuit:
    """Standard path-shaped CX cascade onto the last non-I qubit; serves as
    the baseline and the independent oracle reference for the fountain."""
    n = term.num_qubits
    if term.weight == 0:
        return Circuit(n)
    gates: list[Gate] = _basis_change(term, invert=False)
    chain = term.support
    for a, b in zip(chain, chain[1:]):
        gates.append(Gate(GateKind.CX, (a, b)))
    gates.append(Gate(GateKind.RZ, (chain[-1],), (term.theta,)))
    for a, b in reversed(list(zip(chain, chain[1:]))):
        gates.append(Gate(GateKind.CX, (a, b)))
    gates += _basis_change(term, invert=True)
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# ZZ-idiom recognition and native-protocol substitution
# ---------------------------------------------------------------------------


# After an idiom's opening gate, the gates it must meet next on its two
# qubits: CX(a,b) RZ(t,b) CX(a,b), and, once H(b) has met its CZ(a,b), the
# rest of H(b) CZ(a,b) H(b) RZ(t,b) H(b) CZ(a,b) H(b).
_CX_TAIL = (GateKind.RZ, GateKind.CX)
_H_TAIL = (GateKind.H, GateKind.RZ, GateKind.H, GateKind.CZ, GateKind.H)


def _fold_zz_idioms(circuit: Circuit) -> list[Gate]:
    """The circuit's gates with every ZZ idiom folded into an RZZ gate, in
    one left-to-right pass.

    Each CX or H gate opens a candidate idiom on qubits (a, b). Its next
    gates on a or b, in program order, must follow the pattern; gates on
    other qubits may interleave. In the H form, a is known only at the first
    CZ(a,b), and a gate on a between the opening H(b) and that CZ rejects
    the match: the RZZ lands at the H(b), ahead of such a gate. A match
    replaces its opening gate with RZZ(theta) on (a, b), equal to the idiom
    up to a global phase exp(-i*theta/2), and drops its other gates.

    One pass finds what restarting from the first gate after each fold
    would: every other gate inside a matched idiom avoids a and b, so a fold
    changes what another candidate meets only by turning a gate on (a, b)
    into an RZZ, which no pattern accepts.
    """
    gates = list(circuit.gates)
    num_qubits = circuit.num_qubits
    on: list[list[int]] = [[] for _ in range(num_qubits)]  # positions per qubit
    for i, g in enumerate(gates):
        for q in g.qubits:
            on[q].append(i)
    seen = [0] * num_qubits  # gates on q at positions up to the current one
    end = len(gates)
    dead = [False] * end

    def next_live(q: int, r: int) -> int:
        """The first rank at or after r in q's list that holds a live gate."""
        positions = on[q]
        while r < len(positions) and dead[positions[r]]:
            r += 1
        return r

    for i, first in enumerate(gates):
        for q in first.qubits:
            seen[q] += 1
        kind = first.kind
        if dead[i] or (kind is not GateKind.CX and kind is not GateKind.H):
            continue
        if kind is GateKind.CX:
            a, b = first.qubits
            ra, rb = seen[a], seen[b]
            tail = _CX_TAIL
            matched = [i]
        else:
            (b,) = first.qubits
            rb = next_live(b, seen[b])
            if rb == len(on[b]):
                continue
            j = on[b][rb]
            g = gates[j]
            if g.kind is not GateKind.CZ:
                continue
            a = g.qubits[0] if g.qubits[1] == b else g.qubits[1]
            ra = next_live(a, seen[a])
            if on[a][ra] != j:  # a gate on a comes before the CZ
                continue
            ra, rb = ra + 1, rb + 1
            tail = _H_TAIL
            matched = [i, j]
        for want in tail:
            ra, rb = next_live(a, ra), next_live(b, rb)
            ja = on[a][ra] if ra < len(on[a]) else end
            jb = on[b][rb] if rb < len(on[b]) else end
            j = min(ja, jb)
            if j == end:
                break
            g = gates[j]
            if g.kind is not want:
                break
            if want is GateKind.CX:
                if g.qubits != (a, b):  # CX is not symmetric
                    break
            elif want is GateKind.CZ:
                if g.qubits != (a, b) and g.qubits != (b, a):
                    break
            elif g.qubits[0] != b:
                break
            if want is GateKind.RZ:
                theta = g.params[0]
            matched.append(j)
            if j == ja:
                ra += 1
            if j == jb:
                rb += 1
        else:
            gates[i] = Gate(GateKind.RZZ, (a, b), (theta,))
            for j in matched[1:]:
                dead[j] = True
    return [g for g, d in zip(gates, dead) if not d]


def substitute_rzz(circuit: Circuit, protocol: str = "adiabatic") -> Circuit:
    """Replace RZZ gates and ZZ idioms with the two-pulse native protocol:
    Ad+LP or LP+CPHASE. No storage-zone gate is introduced.

    Two idiom forms fold: CX(a,b) RZ(t,b) CX(a,b), and its lowered form
    H(b) CZ(a,b) H(b) RZ(t,b) H(b) CZ(a,b) H(b). Gates on other qubits may
    interleave with an idiom; in the lowered form, no gate on the control a
    may lie between the opening H(b) and the first CZ. The fold is one
    linear left-to-right pass (see ``_fold_zz_idioms``).
    """
    if protocol not in ("adiabatic", "cphase"):
        raise ValueError(f"unknown protocol {protocol!r}")
    out: list[Gate] = []
    for g in _fold_zz_idioms(circuit):
        if g.kind is not GateKind.RZZ:
            out.append(g)
            continue
        gamma = g.params[0]
        if protocol == "adiabatic":
            out.append(Gate(GateKind.AD, g.qubits, protocols.adiabatic_phases(gamma)))
            out.append(Gate(GateKind.LP, g.qubits, (gamma,)))
        else:
            out.append(Gate(GateKind.LP, g.qubits, (gamma,)))
            out.append(Gate(GateKind.CPHASE, g.qubits, (protocols.cphase_phi(gamma),)))
    return Circuit(circuit.num_qubits, tuple(out))


# ---------------------------------------------------------------------------
# SWAP elimination by relabelling
# ---------------------------------------------------------------------------


def lower_swap(circuit: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Remove every SWAP by relabelling the operands of the gates after it.

    Returns the SWAP-free circuit and each qubit's final slot: the input
    leaves on qubit q the state the result leaves on qubit slots[q]. The
    slots are the identity when there is no SWAP or the SWAPs cancel. The
    input equals the result followed by the input's SWAPs in program order,
    so a SWAP costs no gate and no time.
    """
    slots = list(range(circuit.num_qubits))  # qubit -> its slot after the SWAPs so far
    gates: list[Gate] = []
    swapped = False
    for g in circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            slots[a], slots[b] = slots[b], slots[a]
            swapped = True
        elif swapped:
            gates.append(Gate(g.kind, tuple(slots[q] for q in g.qubits), g.params))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates)), tuple(slots)


def gate_based_swap_reference(num_qubits: int, a: int, b: int) -> Circuit:
    """Gate-based SWAP lowering (3 CX), kept only as the comparison path for
    the movement-based implementation."""
    ab, ba = Gate(GateKind.CX, (a, b)), Gate(GateKind.CX, (b, a))
    return Circuit(num_qubits, (ab, ba, ab))


# ---------------------------------------------------------------------------
# Zone-step construction
# ---------------------------------------------------------------------------


def _reject_after_measure(g: Gate, measured: set[int]) -> None:
    """Readout is terminal: the scheduler carries measured qubits to the
    readout zone for good, so no gate but a MEASURE may follow a qubit's
    MEASURE. Both zone steppers call this before placing a gate."""
    for q in g.qubits:
        if q in measured:
            raise ValueError(f"{g.kind.value} on qubit {q} after its MEASURE; readout is terminal")


def align_zone_steps(circuit: Circuit) -> ZoneStepProgram:
    """Greedy preemptive alignment into alternating zone steps.

    Steps alternate between the two zones, starting with the first
    non-MEASURE gate's zone. Each gate is hoisted as early as its operands
    allow: into the first step of its own zone at or after the latest step
    of any earlier gate on its qubits. Within a step gates keep program
    order. MEASUREs form a final readout step, so a gate after its qubit's
    MEASURE raises ``ValueError``.
    """
    return ZoneStepProgram(circuit.num_qubits, _merge_steps(_aligned_raw(circuit)))


def _aligned_raw(circuit: Circuit) -> list[tuple[Zone, list[Gate]]]:
    """``align_zone_steps``'s steps before seams are merged."""
    # Steps of zone ``first`` have even numbers and the others odd ones.
    first = next((g.zone for g in circuit.gates if g.zone is not Zone.READOUT), None)
    frontier: dict[int, int] = {}  # qubit -> step of the last gate on it
    free = frontier.get
    steps: list[list[Gate]] = []
    measures: list[Gate] = []
    measured: set[int] = set()
    for g in circuit.gates:
        kind = g.kind
        zone = GATE_ZONE[kind]
        if zone is Zone.READOUT:
            measures.append(g)
            measured.add(g.qubits[0])
            continue
        if measured:
            _reject_after_measure(g, measured)
        if kind is GateKind.CX or kind is GateKind.SWAP:
            raise ValueError(f"align_zone_steps requires a {kind.value}-free circuit")
        qubits = g.qubits
        if len(qubits) == 2:
            a, b = qubits
            step = free(a, 0)
            sb = free(b, 0)
            if sb > step:
                step = sb
        else:
            (a,) = qubits
            step = free(a, 0)
        if (step & 1) != (zone is not first):
            step += 1
        for q in qubits:
            frontier[q] = step
        if step == len(steps):  # frontiers never pass the last step
            steps.append([g])
        else:
            steps[step].append(g)
    other = Zone.ENTANGLING if first is Zone.STORAGE else Zone.STORAGE
    raw = [(other if k & 1 else first, gates) for k, gates in enumerate(steps)]
    if measures:
        raw.append((Zone.READOUT, measures))
    return raw


def layer_zone_steps(circuit: Circuit) -> ZoneStepProgram:
    """Unaligned (standard-execution) zone stepping: one zone segment per
    dependency layer of the input circuit, CX gates expanded in place, and
    only adjacent same-zone segments merged. No cross-layer hoisting.
    MEASUREs form a final readout step, as in ``align_zone_steps``."""
    return ZoneStepProgram(circuit.num_qubits, _merge_steps(_layered_raw(circuit)))


def _layered_raw(circuit: Circuit) -> list[tuple[Zone, list[Gate]]]:
    """``layer_zone_steps``'s segments before seams are merged."""
    raw: list[tuple[Zone, list[Gate]]] = []
    measures: list[Gate] = []
    measured: set[int] = set()
    gates = circuit.gates
    for layer in layer_indices(gates):  # a MEASURE's layer precedes later gates on its qubit
        pre: list[Gate] = []
        two: list[Gate] = []
        post: list[Gate] = []
        for i in layer:
            g = gates[i]
            if g.kind is GateKind.MEASURE:
                measures.append(g)
                measured.add(g.qubits[0])
                continue
            if measured:
                _reject_after_measure(g, measured)
            if g.kind is GateKind.CX:
                h = Gate(GateKind.H, (g.qubits[1],))
                pre.append(h)
                two.append(Gate(GateKind.CZ, g.qubits))
                post.append(h)
            elif g.zone is Zone.STORAGE:
                pre.append(g)
            else:
                two.append(g)
        raw.append((Zone.STORAGE, pre))
        raw.append((Zone.ENTANGLING, two))
        raw.append((Zone.STORAGE, post))
    if measures:
        raw.append((Zone.READOUT, measures))
    return raw


def absorb_x_basis(circuit: Circuit) -> Circuit:
    """Absorb a leading H on each qubit into X-basis initialization and a
    trailing H-immediately-before-MEASURE into X-basis readout."""
    ops_on: dict[int, list[int]] = {}
    for i, g in enumerate(circuit.gates):
        for q in g.qubits:
            ops_on.setdefault(q, []).append(i)
    drop: set[int] = set()
    for q, indices in ops_on.items():
        first = circuit.gates[indices[0]]
        if first.kind is GateKind.H:
            drop.add(indices[0])
        if (
            len(indices) >= 2
            and circuit.gates[indices[-1]].kind is GateKind.MEASURE
            and circuit.gates[indices[-2]].kind is GateKind.H
            and indices[-2] not in drop
        ):
            drop.add(indices[-2])
    gates = tuple(g for i, g in enumerate(circuit.gates) if i not in drop)
    return Circuit(circuit.num_qubits, gates)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineOptions:
    mode: str = "mantra"  # "mantra" | "standard"
    protocol: str = "adiabatic"
    x_basis: bool = False

    def __post_init__(self):
        if self.mode not in ("mantra", "standard"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.protocol not in ("adiabatic", "cphase"):
            raise ValueError(f"unknown protocol {self.protocol!r}")


def mantra_pipeline(source, options: PipelineOptions = PipelineOptions()) -> ZoneStepProgram:
    """Full rewriting pipeline to a zone-step program.

    mantra:   fountain synthesis (Pauli inputs), CX lowering, H-pair
              cancellation, native ZZ substitution, SWAP relabelling,
              preemptive alignment.
    standard: path synthesis, RZZ->CX RZ CX, SWAP relabelling, CX lowering,
              per-dependency-layer zone stepping with no hoisting.

    Pauli-term files are compiled term by term (per-string execution); the
    per-term step sequences are concatenated with same-zone seams merged.
    """
    if isinstance(source, PauliTermFile):
        # Basis absorption is only sound at program start; never per term.
        term_options = PipelineOptions(options.mode, options.protocol, x_basis=False)
        # Each term's raw steps are concatenated and merged once, so every
        # ZoneStep is built and checked once.
        raw: list[tuple[Zone, list[Gate]]] = []
        for term in source.terms:
            if term.weight == 0:
                continue
            c, raw_steps = _lower(_synth(term, term_options), term_options)
            raw += raw_steps(c)
        n = source.num_qubits
        raw.append((Zone.READOUT, [Gate(GateKind.MEASURE, (q,)) for q in range(n)]))
        return ZoneStepProgram(n, _merge_steps(raw))
    c, raw_steps = _lower(source, options)
    return ZoneStepProgram(c.num_qubits, _merge_steps(raw_steps(c)), options.x_basis)


def _synth(term: PauliTerm, options: PipelineOptions) -> Circuit:
    if options.mode == "mantra":
        return synth_pauli_fountain(term)
    return synth_pauli_path(term)


def _lower(circuit: Circuit, options: PipelineOptions):
    """The passes before zone stepping: the lowered circuit and the raw
    zone stepper that the mode applies to it."""
    if options.mode == "standard":
        c = lower_rzz_to_cx(circuit)
        raw_steps = _layered_raw
    else:
        c = lower_cx_to_cz(circuit)
        c = cancel_hadamard_pairs(c)
        c = substitute_rzz(c, options.protocol)
        raw_steps = _aligned_raw
    c, _ = lower_swap(c)
    if options.x_basis:
        c = absorb_x_basis(c)
    return c, raw_steps
