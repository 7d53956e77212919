"""Rewriting passes: CX lowering, Hadamard-pair cancellation, fountain/path
Pauli-exponential synthesis, native ZZ-protocol substitution, SWAP
elimination by relabelling, and zone-step alignment.

Every pass preserves the circuit unitary up to global phase. A pass that
would leave the gates as they are returns its input circuit itself, so an
unchanged circuit is neither rebuilt nor checked again.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .ir import (
    AD,
    CPHASE,
    CX,
    CZ,
    ENTANGLING,
    GATE_ZONE,
    LP,
    MEASURE,
    READOUT,
    RX,
    RZ,
    RZZ,
    STORAGE,
    SWAP,
    Circuit,
    CircuitError,
    Gate,
    H,
    PauliTerm,
    PauliTermFile,
    Zone,
    layer_indices,
    paused_gc,
)

# The compile modes, and the two-pulse native ZZ protocols of mantra mode.
MODES = ("mantra", "standard")
PROTOCOLS = ("adiabatic", "cphase")

# ---------------------------------------------------------------------------
# Zone-step program
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ZoneStep:
    zone: Zone
    gates: tuple[Gate, ...]


@dataclass(frozen=True)
class ZoneStepProgram:
    num_qubits: int
    steps: tuple[ZoneStep, ...]
    x_basis: bool = False
    # lower_swap's slots: the written circuit leaves on qubit q the state
    # the program leaves on qubit slots[q]. Empty, like the identity, for
    # Pauli-term sources, whose terms hold no SWAP.
    slots: tuple[int, ...] = ()

    def __post_init__(self):
        """One walk over the steps: adjacent steps differ in zone, each gate
        runs in its step's zone on an operand of the register, which holds
        at least one qubit, as a ``Circuit``'s does, and readout is terminal:
        only a MEASURE may act on a qubit that an earlier step measured."""
        n = self.num_qubits
        if n < 1:
            raise CircuitError("circuit needs at least one qubit")
        last = None
        measured: set[int] = set()
        for step in self.steps:
            zone = step.zone
            if zone is last:
                raise ValueError("adjacent steps share a zone (not maximally merged)")
            last = zone
            for kind, qubits, _ in step.gates:
                if GATE_ZONE[kind] is not zone:
                    raise ValueError(f"{kind.value} (zone {GATE_ZONE[kind].value}) "
                                     f"in a {zone.value} step")
                for q in qubits:
                    if not 0 <= q < n:
                        raise CircuitError(f"operand q[{q}] out of range for {n} qubits")
            if zone is READOUT:
                measured.update(g.qubits[0] for g in step.gates)
            elif measured:
                for kind, qubits, _ in step.gates:
                    for q in qubits:
                        if q in measured:
                            raise ValueError(f"{kind.value} on qubit {q} after its MEASURE; "
                                             "readout is terminal")

    def flatten(self) -> Circuit:
        gates = tuple(g for step in self.steps for g in step.gates)
        return Circuit(self.num_qubits, gates)

    def boundary_crossings(self) -> int:
        """Storage <-> entangling boundaries in the step sequence."""
        pair = {STORAGE, ENTANGLING}
        return sum(
            1
            for a, b in zip(self.steps, self.steps[1:])
            if {a.zone, b.zone} == pair
        )


def _merge_steps(segments: Iterable[tuple[Zone, list[Gate]]]) -> tuple[ZoneStep, ...]:
    """The zone steps of ``segments`` in order: empty segments dropped and
    adjacent segments of one zone merged. Each step is built as soon as a
    segment of another zone follows it, so besides the steps built so far
    only the open step's gates are held."""
    steps: list[ZoneStep] = []
    zone, gates = None, []
    for seg_zone, seg in segments:
        if not seg:
            continue
        if seg_zone is not zone and gates:
            steps.append(ZoneStep(zone, tuple(gates)))
            gates = []
        zone = seg_zone
        gates += seg
    if gates:
        steps.append(ZoneStep(zone, tuple(gates)))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Lowering and peephole passes
# ---------------------------------------------------------------------------


def lower_cx_to_cz(circuit: Circuit) -> Circuit:
    """Fold every ZZ idiom into an RZZ gate, then replace each remaining
    CX(c,t) by H(t); CZ(c,t); H(t).

    The fold comes first because H-pair cancellation would break lowered
    idioms apart: back-to-back idioms on one target share an H(t) H(t) seam,
    and once it is cancelled the lowered pattern no longer matches. Every
    idiom holds a CX or a CZ, so the fold runs on a circuit that holds one,
    as in ``substitute_rzz``.
    """
    kinds = {g.kind for g in circuit.gates}
    if CX not in kinds and CZ not in kinds:
        return circuit
    folded = _fold_zz_idioms(circuit)
    if len(folded) == len(circuit.gates) and CX not in kinds:
        return circuit  # every fold drops gates, so none was made
    # One operand tuple per int qubit; any other qubit type keeps its own.
    singles = [(q,) for q in range(circuit.num_qubits)]
    gates: list[Gate] = []
    for g in folded:
        if g.kind is CX:
            t = g.qubits[1]
            # gates are immutable, so one serves twice
            h = Gate(H, singles[t] if type(t) is int else (t,))
            gates += (h, Gate(CZ, g.qubits), h)
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def lower_rzz_to_cx(circuit: Circuit) -> Circuit:
    """Replace every RZZ(g) by CX; RZ(g); CX (standard-execution template)."""
    if RZZ not in {g.kind for g in circuit.gates}:
        return circuit
    # One operand tuple per int qubit; any other qubit type keeps its own.
    singles = [(q,) for q in range(circuit.num_qubits)]
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is RZZ:
            t = g.qubits[1]
            cx = Gate(CX, g.qubits)
            gates += (cx, Gate(RZ, singles[t] if type(t) is int else (t,), g.params), cx)
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
        if g.kind is H:
            q = g.qubits[0]
            if q in pending:
                kill.update((pending.pop(q), i))
            else:
                pending[q] = i
        else:
            for q in g.qubits:
                pending.pop(q, None)
    if not kill:
        return circuit
    gates = tuple(g for i, g in enumerate(circuit.gates) if i not in kill)
    return Circuit(circuit.num_qubits, gates)


# ---------------------------------------------------------------------------
# Pauli-exponential synthesis
# ---------------------------------------------------------------------------


_HALF_PI = 1.5707963267948966


def _basis_change(term: PauliTerm, make: Callable[..., Gate], invert: bool) -> list[Gate]:
    gates = []
    for q, ch in zip(term.support, (term.label[i] for i in term.support)):
        if ch == "X":
            gates.append(make(H, (q,)))
        elif ch == "Y":
            gates.append(make(RX, (q,), (-_HALF_PI if invert else _HALF_PI,)))
    return gates


def synth_pauli_fountain(term: PauliTerm) -> Circuit:
    """Full exponential exp(-i*theta/2 * P) with a fountain-shaped CZ tree.

    All CZs share the lowest-index non-I qubit as target, so the inner
    Hadamards between CZs cancel and each half-tree runs in a single
    entangling-zone visit. CZs are applied in ascending qubit order. The
    circuit holds no adjacent H pair, so ``cancel_hadamard_pairs`` returns
    it as is.
    """
    return _fountain(term, Gate)


def _fountain(term: PauliTerm, make: Callable[..., Gate]) -> Circuit:
    """``synth_pauli_fountain`` with its gates built by ``make``."""
    n = term.num_qubits
    if term.weight == 0:
        return Circuit(n)  # global phase only
    target = term.support[0]
    others = term.support[1:]
    gates: list[Gate] = _basis_change(term, make, invert=False)
    closing = _basis_change(term, make, invert=True)
    rz = make(RZ, (target,), (term.theta,))
    if not others:
        return Circuit(n, tuple(gates + [rz] + closing))
    h = make(H, (target,))  # gates are immutable, so one serves often
    fan_in = [make(CZ, (q, target)) for q in others]
    middle = fan_in + [h, rz, h] + fan_in[::-1]
    if term.label[target] == "X":
        # The target leads each basis change with an H that would cancel
        # against the fountain's outer H, so neither is emitted.
        del gates[0], closing[0]
    else:
        middle = [h] + middle + [h]
    return Circuit(n, tuple(gates + middle + closing))


def synth_pauli_path(term: PauliTerm) -> Circuit:
    """Standard path-shaped CX cascade onto the last non-I qubit; serves as
    the baseline and the independent oracle reference for the fountain."""
    return _path(term, Gate)


def _path(term: PauliTerm, make: Callable[..., Gate]) -> Circuit:
    """``synth_pauli_path`` with its gates built by ``make``."""
    n = term.num_qubits
    if term.weight == 0:
        return Circuit(n)
    chain = term.support
    ladder = [make(CX, pair) for pair in zip(chain, chain[1:])]
    rz = make(RZ, (chain[-1],), (term.theta,))
    gates = [*_basis_change(term, make, invert=False), *ladder, rz, *ladder[::-1],
             *_basis_change(term, make, invert=True)]
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# ZZ-idiom recognition and native-protocol substitution
# ---------------------------------------------------------------------------


# After an idiom's opening gate, the gates it must meet next on its two
# qubits: CX(a,b) RZ(t,b) CX(a,b), and H(b) CZ(a,b) H(b) RZ(t,b) H(b)
# CZ(a,b) H(b).
_TAILS = {CX: (RZ, CX), H: (CZ, H, RZ, H, CZ, H)}


def _fold_zz_idioms(circuit: Circuit) -> list[Gate]:
    """The circuit's gates with every ZZ idiom folded into an RZZ gate, in
    one left-to-right pass.

    Each CX or H gate opens a candidate idiom on qubits (a, b): a CX(a,b)
    names both, and an H(b) reads a off the next live gate on b, which must
    be a CZ(a,b). One walk then matches the opener's tail in ``_TAILS``:
    each tail gate must be the next live gate on a or b, so gates on other
    qubits may interleave. In the H form a gate on a before that CZ would
    fail the walk's first step (the RZZ would land at the H(b), ahead of
    it), so one index compare rejects that case before the walk is set up.
    A match replaces its opening gate with RZZ(theta) on (a, b), equal to
    the idiom up to a global phase exp(-i*theta/2), and drops the rest. The
    RZZ holds the RZ's parameter tuple and, as operands, the CX's qubit
    tuple or a CZ(a,b)'s; only a CZ(b,a) needs a new one.

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

    for i, first in enumerate(gates):
        for q in first.qubits:
            seen[q] += 1
        kind = first.kind
        if (kind is not CX and kind is not H) or dead[i]:
            continue
        if kind is CX:
            pair = first.qubits
            a, b = pair
            ra, rb = seen[a], seen[b]
        else:
            (b,) = first.qubits
            on_b, rb = on[b], seen[b]
            while rb < len(on_b) and dead[on_b[rb]]:
                rb += 1
            if rb == len(on_b) or gates[on_b[rb]].kind is not CZ:
                continue
            j = on_b[rb]
            pair = gates[j].qubits
            x, y = pair
            if x == b:
                a, pair = y, (y, b)
            else:
                a = x
            # The walk's first step fails unless the CZ is also the next
            # live gate on a; test that here, before the walk is set up.
            on_a, ra = on[a], seen[a]
            while dead[on_a[ra]]:
                ra += 1
            if on_a[ra] != j:
                continue
        on_a, on_b = on[a], on[b]
        na, nb = len(on_a), len(on_b)
        matched = [i]
        for want in _TAILS[kind]:
            while ra < na and dead[on_a[ra]]:
                ra += 1
            while rb < nb and dead[on_b[rb]]:
                rb += 1
            ja = on_a[ra] if ra < na else end
            jb = on_b[rb] if rb < nb else end
            j = ja if ja < jb else jb
            if j == end:
                break
            g = gates[j]
            if g.kind is not want:
                break
            if want is CX:
                if g.qubits != (a, b):  # CX is not symmetric
                    break
            elif want is CZ:
                if g.qubits != (a, b) and g.qubits != (b, a):
                    break
            elif g.qubits[0] != b:
                break
            if want is RZ:
                angle = g.params
            matched.append(j)
            if j == ja:
                ra += 1
            if j == jb:
                rb += 1
        else:
            gates[i] = Gate(RZZ, pair, angle)
            for j in matched[1:]:
                dead[j] = True
    return [g for g, d in zip(gates, dead) if not d]


def cphase_phi(gamma: float) -> float:
    """CPHASE angle after LP(gamma): -2*gamma - pi, so the total |11> phase
    cancels to zero."""
    return -2.0 * gamma - math.pi


def adiabatic_phases(gamma: float, phi2: float = 0.0) -> tuple[float, float]:
    """Ad gate phases (phi1, phi2) before LP(gamma), with
    phi1 = (pi + 2*gamma + phi2) / 2.

    The Ad gate contributes exp(i*(phi2 - 2*phi1)) = exp(-i*(pi + 2*gamma)) on
    |11>, cancelling the LP gate's exp(i*(2*gamma + pi)).
    """
    return (math.pi + 2.0 * gamma + phi2) / 2.0, phi2


def substitute_rzz(circuit: Circuit, protocol: str = "adiabatic") -> Circuit:
    """Replace RZZ gates and ZZ idioms with the two-pulse native protocol:
    Ad+LP or LP+CPHASE. No storage-zone gate is introduced.

    Two idiom forms fold: CX(a,b) RZ(t,b) CX(a,b), and its lowered form
    H(b) CZ(a,b) H(b) RZ(t,b) H(b) CZ(a,b) H(b). Gates on other qubits may
    interleave with an idiom; in the lowered form, no gate on the control a
    may lie between the opening H(b) and the first CZ. The fold is one
    linear left-to-right pass (see ``_fold_zz_idioms``). Every idiom holds a
    CX or a CZ, so the fold runs only on a circuit that holds one.
    """
    return _substitute(circuit, protocol, Gate)


def _substitute(circuit: Circuit, protocol: str, make: Callable[..., Gate]) -> Circuit:
    """``substitute_rzz`` with its protocol gates built by ``make``."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    kinds = {g.kind for g in circuit.gates}
    gates = circuit.gates
    if CX in kinds or CZ in kinds:
        gates = _fold_zz_idioms(circuit)
    if RZZ not in kinds and len(gates) == len(circuit.gates):
        return circuit  # every fold makes an RZZ and drops gates, so none was made
    adiabatic = protocol == "adiabatic"
    # gamma -> the AD or CPHASE parameters. A float is its own key:
    # adiabatic_phases and cphase_phi give bit-equal results for equal
    # floats, 0.0 and -0.0 included. Any other type is keyed with its type,
    # so its results, whose type may differ, never serve a float.
    phases: dict = {}
    out: list[Gate] = []
    for g in gates:
        if g.kind is not RZZ:
            out.append(g)
            continue
        gamma = g.params[0]
        key = gamma if type(gamma) is float else (type(gamma), gamma)
        params = phases.get(key)
        if params is None:
            params = phases[key] = (adiabatic_phases(gamma) if adiabatic
                                    else (cphase_phi(gamma),))
        if adiabatic:
            out.append(make(AD, g.qubits, params))
            out.append(make(LP, g.qubits, g.params))
        else:
            out.append(make(LP, g.qubits, g.params))
            out.append(make(CPHASE, g.qubits, params))
    return Circuit(circuit.num_qubits, tuple(out))


# ---------------------------------------------------------------------------
# SWAP elimination by relabelling
# ---------------------------------------------------------------------------


def lower_swap(circuit: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Remove every SWAP by relabelling the operands of the gates after it.

    Returns the SWAP-free circuit and each qubit's final slot: the input
    leaves on qubit q the state the result leaves on qubit slots[q]. The
    slots are the identity when the SWAPs cancel, and when there is no SWAP,
    where the result is the input itself. The input equals the result
    followed by the input's SWAPs in program order, so a SWAP costs no gate
    and no time.
    """
    if SWAP not in {g.kind for g in circuit.gates}:
        return circuit, tuple(range(circuit.num_qubits))
    slots = list(range(circuit.num_qubits))  # qubit -> its slot after the SWAPs so far
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind is SWAP:
            a, b = g.qubits
            slots[a], slots[b] = slots[b], slots[a]
        else:
            gates.append(Gate(g.kind, tuple(slots[q] for q in g.qubits), g.params))
    return Circuit(circuit.num_qubits, tuple(gates)), tuple(slots)


def gate_based_swap_reference(num_qubits: int, a: int, b: int) -> Circuit:
    """Gate-based SWAP lowering (3 CX), kept only as the reference that the
    relabelled SWAP of acceptance criterion 8 must beat."""
    ab, ba = Gate(CX, (a, b)), Gate(CX, (b, a))
    return Circuit(num_qubits, (ab, ba, ab))


# ---------------------------------------------------------------------------
# Zone-step construction
# ---------------------------------------------------------------------------


def _check_readout(circuit: Circuit) -> None:
    """Readout is terminal: the scheduler carries measured qubits to the
    readout zone for good, so only a MEASURE may follow a qubit's MEASURE.
    Raises ``ValueError`` naming the first gate that does, as the circuit
    has it; a SWAP counts."""
    measured: set[int] = set()
    for g in circuit.gates:
        if g.kind is MEASURE:
            measured.add(g.qubits[0])
        elif measured and not measured.isdisjoint(g.qubits):
            q = next(q for q in g.qubits if q in measured)
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
    _check_readout(circuit)
    return ZoneStepProgram(circuit.num_qubits, _merge_steps(_aligned_raw(circuit)))


def _aligned_raw(circuit: Circuit) -> list[tuple[Zone, list[Gate]]]:
    """``align_zone_steps``'s steps before seams are merged."""
    # Steps of zone ``first`` have even numbers and the others odd ones.
    first = next((g.zone for g in circuit.gates if g.zone is not READOUT), None)
    frontier: dict[int, int] = {}  # qubit -> step of the last gate on it
    free = frontier.get
    steps: list[list[Gate]] = []
    measures: list[Gate] = []
    for g in circuit.gates:
        kind = g.kind
        zone = GATE_ZONE[kind]
        if zone is READOUT:
            measures.append(g)
            continue
        if kind is CX or kind is SWAP:
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
    other = ENTANGLING if first is STORAGE else STORAGE
    raw = [(other if k & 1 else first, gates) for k, gates in enumerate(steps)]
    if measures:
        raw.append((READOUT, measures))
    return raw


def layer_zone_steps(circuit: Circuit) -> ZoneStepProgram:
    """Unaligned (standard-execution) zone stepping: one zone segment per
    dependency layer of the input circuit, CX gates expanded in place, and
    only adjacent same-zone segments merged. No cross-layer hoisting.
    MEASUREs form a final readout step, as in ``align_zone_steps``. A SWAP
    raises ``ValueError``: ``lower_swap`` removes it first."""
    _check_readout(circuit)
    return ZoneStepProgram(circuit.num_qubits, _merge_steps(_layered_raw(circuit, Gate)))


def _layered_raw(circuit: Circuit, make: Callable[..., Gate]) -> Iterator[tuple[Zone, list[Gate]]]:
    """``layer_zone_steps``'s segments before seams are merged, yielded
    layer by layer, each CX's H and CZ built by ``make``."""
    measures: list[Gate] = []
    singles: dict[int, tuple[int]] = {}  # one H operand tuple per int qubit
    gates = circuit.gates
    for layer in layer_indices(gates):
        pre: list[Gate] = []
        two: list[Gate] = []
        post: list[Gate] = []
        for i in layer:
            g = gates[i]
            kind = g.kind
            if kind is MEASURE:
                measures.append(g)
                continue
            if kind is CX:
                t = g.qubits[1]
                h = make(H, singles.setdefault(t, (t,)) if type(t) is int else (t,))
                pre.append(h)
                two.append(make(CZ, g.qubits))
                post.append(h)
            elif GATE_ZONE[kind] is STORAGE:
                pre.append(g)
            elif kind is SWAP:
                raise ValueError("layer_zone_steps requires a SWAP-free circuit")
            else:
                two.append(g)
        # Basis-change and RZ layers fill one segment of the three.
        yield STORAGE, pre
        yield ENTANGLING, two
        yield STORAGE, post
    yield READOUT, measures


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
        if first.kind is H:
            drop.add(indices[0])
        if (
            len(indices) >= 2
            and circuit.gates[indices[-1]].kind is MEASURE
            and circuit.gates[indices[-2]].kind is H
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
    mode: str = "mantra"  # one of MODES
    protocol: str = "adiabatic"  # one of PROTOCOLS
    x_basis: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")


@paused_gc
def mantra_pipeline(source, options: PipelineOptions = PipelineOptions()) -> ZoneStepProgram:
    """Full rewriting pipeline to a zone-step program.

    A circuit runs every pass. mantra: ZZ-idiom folding and CX lowering,
    H-pair cancellation, native ZZ substitution, SWAP relabelling,
    preemptive alignment. standard: RZZ->CX RZ CX, SWAP relabelling, CX
    lowering, per-dependency-layer zone stepping with no hoisting. A gate
    after its qubit's MEASURE raises ``ValueError`` before any pass runs.

    A Pauli-term file compiles term by term (per-string execution), seams
    merged, then one readout step; an identity term synthesises no gate, so
    it adds no step. A synthesised term is already lowered, so mantra runs
    only native ZZ substitution on a fountain before alignment, and standard
    steps a path as synthesised. The terms build their gates through one
    memo (``_gate_memo``), so gates equal in kind, qubits and every
    parameter's type and bits are one object across the file.
    """
    if isinstance(source, PauliTermFile):
        # The terms' segments stream, term by term, into one merge, so every
        # ZoneStep is built once, as soon as its zone ends, and the program
        # checks its gates once. A memo hit returns the gate built and
        # checked from the same arguments.
        make = _gate_memo()
        if options.mode == "mantra":
            per_term = (_aligned_raw(_substitute(_fountain(t, make), options.protocol, make))
                        for t in source.terms)
        else:
            per_term = (_layered_raw(_path(t, make), make) for t in source.terms)
        n = source.num_qubits
        readout = [(READOUT, [Gate(MEASURE, (q,)) for q in range(n)])]
        segments = itertools.chain(itertools.chain.from_iterable(per_term), readout)
        return ZoneStepProgram(n, _merge_steps(segments))
    _check_readout(source)
    c, slots = _lower(source, options)
    raw = _aligned_raw(c) if options.mode == "mantra" else _layered_raw(c, Gate)
    return ZoneStepProgram(c.num_qubits, _merge_steps(raw), options.x_basis, slots)


def _plain(x) -> bool:
    """Whether ``x`` is a float other than -0.0: ``==`` between two such
    values holds only when their bits agree."""
    return type(x) is float and (x != 0.0 or math.copysign(1.0, x) > 0.0)


def _gate_memo() -> Callable[..., Gate]:
    """A ``Gate`` constructor with one memo: a gate equal in kind, qubits
    and every parameter's type and bits to one built before is that gate.

    Gates with no parameters, or only plain ones (``_plain``), go to one
    ``functools.cache(Gate)``, keyed by ``==``, which is exact on plain
    values. The rest are keyed by each parameter's type and repr, so -0.0
    never gets the gate of 0.0, nor 1 the gate of 1.0.
    """
    shared = functools.cache(Gate)
    odd: dict = {}

    def exact(*args):
        # The cache keys on the arguments as passed, so they pass through
        # unchanged: a term's H(q) then finds the one another term built.
        if len(args) == 2 or all(map(_plain, args[2])):
            return shared(*args)
        kind, qubits, params = args
        key = (kind, qubits, tuple(map(type, params)), tuple(map(repr, params)))
        gate = odd.get(key)
        if gate is None:
            gate = odd[key] = Gate(kind, qubits, params)
        return gate

    return exact


def _lower(circuit: Circuit, options: PipelineOptions) -> tuple[Circuit, tuple[int, ...]]:
    """The passes before zone stepping, and ``lower_swap``'s slots."""
    if options.mode == "standard":
        c = lower_rzz_to_cx(circuit)
    else:
        c = lower_cx_to_cz(circuit)
        c = cancel_hadamard_pairs(c)
        c = substitute_rzz(c, options.protocol)
    c, slots = lower_swap(c)
    if options.x_basis:
        c = absorb_x_basis(c)
    return c, slots
