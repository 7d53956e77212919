import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from zonec.frontend import gen_ghz
from zonec.ir import ARITY, NUM_PARAMS, Circuit, Gate, GateKind, PauliTerm, Zone
from zonec.oracle import unitary_of
from zonec.protocols import equiv_up_to_global_phase
from zonec.rewrite import (
    PipelineOptions,
    ZoneStep,
    ZoneStepProgram,
    absorb_x_basis,
    align_zone_steps,
    cancel_hadamard_pairs,
    gate_based_swap_reference,
    layer_zone_steps,
    lower_cx_to_cz,
    lower_rzz_to_cx,
    lower_swap,
    mantra_pipeline,
    substitute_rzz,
    synth_pauli_fountain,
    synth_pauli_path,
)
from zonec.rewrite import _fold_zz_idioms, _merge_steps


def random_term(rng, n):
    label = "".join(rng.choice("IXYZ") for _ in range(n))
    if set(label) == {"I"}:
        label = "Z" + label[1:]
    return PauliTerm(label, rng.uniform(-math.pi, math.pi))


def random_gate_circuit(rng, n, depth):
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
        params = tuple(rng.uniform(-math.pi, math.pi) for _ in range(NUM_PARAMS[kind]))
        gates.append(Gate(kind, qubits, params))
    return Circuit(n, tuple(gates))


def assert_equiv(a: Circuit, b: Circuit, tol=1e-9):
    assert equiv_up_to_global_phase(unitary_of(a), unitary_of(b), tol)


def swaps_of(c: Circuit) -> tuple[Gate, ...]:
    """The circuit's SWAPs in program order: lowering moves them to the end
    as a relabelling, so a lowered circuit followed by them equals it."""
    return tuple(g for g in c.gates if g.kind is GateKind.SWAP)


def _cancel_fixed_point_reference(circuit):
    """H-pair cancellation as first written: scan, drop the adjacent pairs
    found, and repeat until a scan drops nothing."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        pending, kill = {}, set()
        for i, g in enumerate(gates):
            if g.kind is GateKind.H:
                q = g.qubits[0]
                if q in pending:
                    kill.update((pending.pop(q), i))
                    changed = True
                else:
                    pending[q] = i
            else:
                for q in g.qubits:
                    pending.pop(q, None)
        gates = [g for i, g in enumerate(gates) if i not in kill]
    return gates


@st.composite
def h_cz_circuits(draw):
    """Random lists of H, CZ, X and RZ gates on at most 4 qubits."""
    n = draw(st.integers(1, 4))
    kinds = [GateKind.H, GateKind.X, GateKind.RZ] + ([GateKind.CZ] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        qubits = tuple(draw(st.permutations(range(n)))[: ARITY[kind]])
        gates.append(Gate(kind, qubits, (0.5,) * NUM_PARAMS[kind]))
    return Circuit(n, tuple(gates))


class TestLoweringPasses:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_each_pass_preserves_unitary(self, seed):
        rng = random.Random(seed)
        c = random_gate_circuit(rng, rng.randint(2, 5), 10)
        assert_equiv(c, lower_cx_to_cz(c))
        assert_equiv(c, lower_rzz_to_cx(c))
        assert_equiv(c, cancel_hadamard_pairs(c))
        assert_equiv(c, substitute_rzz(c))
        lowered, _ = lower_swap(c)
        assert_equiv(c, Circuit(c.num_qubits, lowered.gates + swaps_of(c)))

    def test_cancel_is_fixed_point(self):
        c = Circuit(2, (Gate(GateKind.H, (0,)),) * 4)
        out = cancel_hadamard_pairs(c)
        assert len(out.gates) == 0
        assert cancel_hadamard_pairs(out) == out

    @given(h_cz_circuits())
    @settings(max_examples=300, deadline=None)
    def test_cancel_one_pass_matches_fixed_point(self, c):
        out = cancel_hadamard_pairs(c)
        assert list(out.gates) == _cancel_fixed_point_reference(c)
        assert cancel_hadamard_pairs(out) == out

    def test_cancel_respects_interposed_gate(self):
        c = Circuit(
            1,
            (
                Gate(GateKind.H, (0,)),
                Gate(GateKind.X, (0,)),
                Gate(GateKind.H, (0,)),
            ),
        )
        assert len(cancel_hadamard_pairs(c).gates) == 3

    def test_substitute_folds_cx_rz_cx(self):
        theta = 0.77
        c = Circuit(
            2,
            (
                Gate(GateKind.CX, (0, 1)),
                Gate(GateKind.RZ, (1,), (theta,)),
                Gate(GateKind.CX, (0, 1)),
            ),
        )
        out = substitute_rzz(c, protocol="adiabatic")
        kinds = {g.kind for g in out.gates}
        assert kinds <= {GateKind.AD, GateKind.LP}
        assert_equiv(c, out)

    def test_substitute_cphase_protocol(self):
        c = Circuit(2, (Gate(GateKind.RZZ, (0, 1), (0.4,)),))
        out = substitute_rzz(c, protocol="cphase")
        kinds = [g.kind for g in out.gates]
        assert GateKind.CPHASE in kinds and GateKind.LP in kinds
        assert_equiv(c, out)

    def test_substitute_introduces_no_storage_gates(self):
        c = Circuit(3, (Gate(GateKind.RZZ, (0, 2), (1.1,)),))
        out = substitute_rzz(c)
        assert all(g.zone is Zone.ENTANGLING for g in out.gates)


def _fold_restart_reference(gates):
    """The ZZ-idiom fold as it was first written: match from each index,
    fold the first match, rebuild the list and restart from index 0. The
    matcher carries the control-qubit rule (a gate on a between the opening
    H(b) and the first CZ blocks the fold)."""

    def match(gates, i):
        first = gates[i]
        if first.kind is GateKind.CX:
            pattern = ["RZ", "CX"]
            a, b = first.qubits
        elif first.kind is GateKind.H:
            b = first.qubits[0]
            pattern = ["CZ", "H", "RZ", "H", "CZ", "H"]
            a = None
        else:
            return None
        involved = set(first.qubits)
        indices = [i]
        theta = None
        j = i + 1
        for want in pattern:
            while j < len(gates) and not involved & set(gates[j].qubits):
                j += 1
            if j >= len(gates):
                return None
            g = gates[j]
            if g.kind.value != want:
                return None
            if want in ("RZ", "H") and g.qubits[0] != b:
                return None
            if want == "CX":
                if g.qubits != first.qubits:
                    return None
            elif want == "CZ":
                if a is None:
                    if b not in g.qubits:
                        return None
                    a = g.qubits[0] if g.qubits[1] == b else g.qubits[1]
                    if any(a in gates[k].qubits for k in range(i + 1, j)):
                        return None
                    involved.add(a)
                elif set(g.qubits) != {a, b}:
                    return None
            if want == "RZ":
                theta = g.params[0]
            indices.append(j)
            j += 1
        return indices, a, b, theta

    gates = list(gates)
    changed = True
    while changed:
        changed = False
        for i in range(len(gates)):
            if gates[i].kind not in (GateKind.CX, GateKind.H):
                continue
            m = match(gates, i)
            if m is None:
                continue
            indices, a, b, theta = m
            keep = set(indices)
            rebuilt = []
            for j, g in enumerate(gates):
                if j == indices[0]:
                    rebuilt.append(Gate(GateKind.RZZ, (a, b), (theta,)))
                elif j not in keep:
                    rebuilt.append(g)
            gates = rebuilt
            changed = True
            break
    return gates


_FILLER_KINDS = (GateKind.H, GateKind.RZ, GateKind.RX, GateKind.X, GateKind.CZ,
                 GateKind.CX, GateKind.RZZ)
_angles = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def idiom_circuits(draw):
    """Up to ~40 gates on 2..8 qubits: planted CX-form and H-form ZZ idioms
    among single gates, then a few adjacent swaps so idioms interleave."""
    n = draw(st.integers(2, 8))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    gates: list[Gate] = []
    while len(gates) < 40:
        shape = draw(st.sampled_from(("cx", "h", "gate", "gate", "gate", "stop")))
        if shape == "stop":
            break
        if shape == "gate":
            kind = draw(st.sampled_from(_FILLER_KINDS))
            qubits = tuple(draw(pair)) if ARITY[kind] == 2 else (draw(st.integers(0, n - 1)),)
            params = tuple(draw(_angles) for _ in range(NUM_PARAMS[kind]))
            gates.append(Gate(kind, qubits, params))
            continue
        a, b = draw(pair)
        rz = Gate(GateKind.RZ, (b,), (draw(_angles),))
        if shape == "cx":
            cx = Gate(GateKind.CX, (a, b))
            gates += [cx, rz, cx]
        else:
            h = Gate(GateKind.H, (b,))
            cz1, cz2 = (
                Gate(GateKind.CZ, (a, b) if draw(st.booleans()) else (b, a))
                for _ in range(2)
            )
            gates += [h, cz1, h, rz, h, cz2, h]
    for k in draw(st.lists(st.integers(0, max(0, len(gates) - 2)), max_size=6)):
        if k + 1 < len(gates):
            gates[k], gates[k + 1] = gates[k + 1], gates[k]
    return Circuit(n, tuple(gates))


def _h(q):
    return Gate(GateKind.H, (q,))


def _cz(a, b):
    return Gate(GateKind.CZ, (a, b))


def _rz(q, theta):
    return Gate(GateKind.RZ, (q,), (theta,))


class TestZZIdiomFold:
    # H(1) opens an idiom on target 1, but H(0) acts on the control before
    # the first CZ: the RZZ would land ahead of that H.
    CONTROL_HIT = Circuit(
        2, (_h(1), _h(0), _cz(0, 1), _h(1), _rz(1, 0.7), _h(1), _cz(0, 1), _h(1))
    )
    CONTROL_HIT_QASM = (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
        "h q[1]; h q[0]; cz q[0],q[1]; h q[1]; rz(0.7) q[1]; h q[1]; "
        "cz q[0],q[1]; h q[1];\n"
    )

    def test_gate_on_control_blocks_fold(self):
        out = substitute_rzz(self.CONTROL_HIT)
        assert out.gates == self.CONTROL_HIT.gates
        assert_equiv(self.CONTROL_HIT, out)

    def test_gate_on_control_blocks_fold_through_pipeline(self):
        from zonec.frontend import parse_qasm

        circuit = parse_qasm(self.CONTROL_HIT_QASM)
        assert circuit.gates == self.CONTROL_HIT.gates
        prog = mantra_pipeline(circuit, PipelineOptions(mode="mantra"))
        assert_equiv(circuit, prog.flatten())

    def test_lowered_form_folds_around_other_qubits(self):
        # A gate on the control before the opening H(b), and gates on a
        # third qubit inside the idiom, leave the fold in place.
        c = Circuit(
            3,
            (_h(0), _h(1), _h(2), _cz(1, 0), _h(2), _h(1), _rz(1, 0.4), _h(1),
             _cz(0, 1), _h(1)),
        )
        out = _fold_zz_idioms(c)
        assert out == [_h(0), Gate(GateKind.RZZ, (0, 1), (0.4,)), _h(2), _h(2)]
        assert_equiv(c, substitute_rzz(c))

    def test_idiom_opened_inside_an_earlier_fold(self):
        # H(2) sits inside the CX-form idiom on (0, 1); its own idiom on
        # (0, 2) starts after that fold dropped CX(0,1), which it must skip.
        cx = Gate(GateKind.CX, (0, 1))
        c = Circuit(
            3,
            (cx, _h(2), _rz(1, 0.3), cx, _cz(0, 2), _h(2), _rz(2, 0.5), _h(2),
             _cz(0, 2), _h(2)),
        )
        out = _fold_zz_idioms(c)
        assert out == [
            Gate(GateKind.RZZ, (0, 1), (0.3,)),
            Gate(GateKind.RZZ, (0, 2), (0.5,)),
        ]
        assert out == _fold_restart_reference(c.gates)

    @given(idiom_circuits())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_restart_loop(self, c):
        folded = _fold_zz_idioms(c)
        assert folded == _fold_restart_reference(c.gates)
        if c.num_qubits <= 6:
            assert_equiv(c, substitute_rzz(c))


class TestPauliSynthesis:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fountain_matches_path(self, seed):
        rng = random.Random(seed)
        t = random_term(rng, rng.randint(2, 6))
        assert_equiv(synth_pauli_fountain(t), synth_pauli_path(t))

    def test_fountain_has_single_moving_qubit(self):
        t = PauliTerm("ZZZZ", 0.5)
        c = synth_pauli_fountain(t)
        czs = [g for g in c.gates if g.kind is GateKind.CZ]
        shared = set.intersection(*(set(g.qubits) for g in czs))
        assert len(shared) == 1

    def test_fountain_zone_step_count(self):
        # basis work / CZ ascent / rotation / CZ descent / basis work
        t = PauliTerm("ZZZ", 0.3)
        prog = align_zone_steps(
            cancel_hadamard_pairs(lower_cx_to_cz(synth_pauli_fountain(t)))
        )
        zones = [s.zone for s in prog.steps]
        assert zones == [
            Zone.STORAGE,
            Zone.ENTANGLING,
            Zone.STORAGE,
            Zone.ENTANGLING,
            Zone.STORAGE,
        ]


def _lower_swap_reference(circuit):
    """SWAP lowering with a linear perm.index lookup per operand."""
    perm = list(range(circuit.num_qubits))
    gates = []
    for g in circuit.gates:
        if g.kind is GateKind.SWAP:
            a, b = g.qubits
            ia, ib = perm.index(a), perm.index(b)
            perm[ia], perm[ib] = perm[ib], perm[ia]
        else:
            gates.append(Gate(g.kind, tuple(perm.index(q) for q in g.qubits), g.params))
    slots = tuple(perm.index(q) for q in range(circuit.num_qubits))
    return Circuit(circuit.num_qubits, tuple(gates)), slots


class TestSwapLowering:
    def test_cancelling_swaps_leave_identity_slots(self):
        c = Circuit(
            3,
            (
                Gate(GateKind.H, (0,)),
                Gate(GateKind.SWAP, (0, 1)),
                Gate(GateKind.CZ, (1, 2)),
                Gate(GateKind.SWAP, (0, 1)),
            ),
        )
        lowered, slots = lower_swap(c)
        assert lowered.gates == (Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 2)))
        assert slots == (0, 1, 2)
        assert_equiv(c, Circuit(c.num_qubits, lowered.gates + swaps_of(c)))

    def test_chained_swaps_permute_slots(self):
        c = Circuit(
            3,
            (
                Gate(GateKind.SWAP, (0, 1)),
                Gate(GateKind.SWAP, (1, 2)),
                Gate(GateKind.RX, (2,), (0.3,)),
                Gate(GateKind.CZ, (0, 2)),
            ),
        )
        lowered, slots = lower_swap(c)
        assert lowered.gates == (
            Gate(GateKind.RX, (0,), (0.3,)),
            Gate(GateKind.CZ, (1, 0)),
        )
        assert slots == (1, 2, 0)
        assert_equiv(c, Circuit(c.num_qubits, lowered.gates + swaps_of(c)))

    def test_measure_after_swap_is_relabelled(self):
        c = Circuit(
            2,
            (
                Gate(GateKind.X, (0,)),
                Gate(GateKind.SWAP, (0, 1)),
                Gate(GateKind.MEASURE, (0,)),
            ),
        )
        lowered, slots = lower_swap(c)
        assert lowered.gates == (Gate(GateKind.X, (0,)), Gate(GateKind.MEASURE, (1,)))
        assert slots == (1, 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_permutation_index_reference(self, seed):
        rng = random.Random(seed)
        c = random_gate_circuit(rng, rng.randint(2, 6), rng.randint(0, 30))
        assert lower_swap(c) == _lower_swap_reference(c)

    def test_gate_based_reference_is_three_cx(self):
        c = gate_based_swap_reference(4, 1, 2)
        assert [g.kind for g in c.gates] == [GateKind.CX] * 3


def _align_reference(circuit):
    """Alignment by repeated ascending scans to a fixed point per step."""
    main = [(i, g) for i, g in enumerate(circuit.gates) if g.zone is not Zone.READOUT]
    measures = [g for g in circuit.gates if g.zone is Zone.READOUT]
    last_on, preds = {}, {}
    for i, g in main:
        preds[i] = {last_on[q] for q in g.qubits if q in last_on}
        for q in g.qubits:
            last_on[q] = i
    remaining, done, raw = dict(main), set(), []
    current_zone = main[0][1].zone if main else Zone.STORAGE
    while remaining:
        step_gates = []
        progressed = True
        while progressed:
            progressed = False
            for i in sorted(remaining):
                g = remaining[i]
                if g.zone is current_zone and preds[i] <= done:
                    step_gates.append(g)
                    done.add(i)
                    del remaining[i]
                    progressed = True
        raw.append((current_zone, step_gates))
        current_zone = Zone.ENTANGLING if current_zone is Zone.STORAGE else Zone.STORAGE
    if measures:
        raw.append((Zone.READOUT, measures))
    return ZoneStepProgram(circuit.num_qubits, _merge_steps(raw))


_ALIGNABLE = [k for k in GateKind if k not in (GateKind.CX, GateKind.SWAP)]


@st.composite
def measured_anywhere_circuits(draw):
    """Random CX- and SWAP-free circuits, MEASUREs anywhere."""
    n = draw(st.integers(1, 6))
    kinds = [k for k in _ALIGNABLE if ARITY[k] <= n]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        qubits = tuple(draw(st.permutations(range(n)))[: ARITY[kind]])
        gates.append(Gate(kind, qubits, (0.5,) * NUM_PARAMS[kind]))
    return Circuit(n, tuple(gates))


@st.composite
def alignable_circuits(draw):
    """Random CX- and SWAP-free circuits; each MEASURE comes after the last
    gate on its qubit."""
    c = draw(measured_anywhere_circuits())
    gates = [g for g in c.gates if g.kind is not GateKind.MEASURE]
    for q in draw(st.lists(st.integers(0, c.num_qubits - 1), max_size=c.num_qubits)):
        last = max((i for i, g in enumerate(gates) if q in g.qubits), default=-1)
        gates.insert(draw(st.integers(last + 1, len(gates))), Gate(GateKind.MEASURE, (q,)))
    return Circuit(c.num_qubits, tuple(gates))


def _gates_after_measure(circuit) -> set[str]:
    """How the zone steppers name each gate that follows its qubit's
    MEASURE."""
    measured, late = set(), set()
    for g in circuit.gates:
        if g.kind is GateKind.MEASURE:
            measured.add(g.qubits[0])
        else:
            late.update(f"{g.kind.value} on qubit {q}" for q in g.qubits if q in measured)
    return late


class TestZoneSteps:
    @given(alignable_circuits())
    @settings(max_examples=1000, deadline=None)
    def test_alignment_matches_fixed_point_scan(self, circuit):
        assert align_zone_steps(circuit) == _align_reference(circuit)

    @given(measured_anywhere_circuits())
    @settings(max_examples=300, deadline=None)
    def test_gate_after_measure_raises_in_both_modes(self, circuit):
        late = _gates_after_measure(circuit)
        for steps in (align_zone_steps, layer_zone_steps):
            if not late:
                steps(circuit)
                continue
            with pytest.raises(ValueError, match="after its MEASURE; readout is terminal") as err:
                steps(circuit)
            assert str(err.value).partition(" after")[0] in late

    def test_adjacent_steps_differ(self):
        with pytest.raises(Exception):
            ZoneStepProgram(
                2,
                (
                    ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (0,)),)),
                    ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (1,)),)),
                ),
            )

    def test_gate_zone_must_match_step(self):
        with pytest.raises(Exception):
            ZoneStep(Zone.ENTANGLING, (Gate(GateKind.H, (0,)),))

    def test_parallel_ghz7_alignment(self):
        c = gen_ghz(7, chain="parallel")
        unaligned = mantra_pipeline(c, PipelineOptions(mode="standard"))
        aligned = mantra_pipeline(c, PipelineOptions(mode="mantra"))
        assert unaligned.boundary_crossings() == 6
        assert aligned.boundary_crossings() == 4

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_flatten_preserves_unitary(self, seed):
        rng = random.Random(seed)
        c = random_gate_circuit(rng, rng.randint(2, 5), 8)
        for mode in ("mantra", "standard"):
            prog = mantra_pipeline(c, PipelineOptions(mode=mode))
            assert_equiv(c, Circuit(c.num_qubits, prog.flatten().gates + swaps_of(c)))


class TestXBasisAbsorption:
    def test_leading_h_dropped(self):
        c = gen_ghz(4, chain="fountain")
        out = absorb_x_basis(lower_cx_to_cz(c))
        assert sum(1 for g in out.gates if g.kind is GateKind.H) < sum(
            1 for g in lower_cx_to_cz(c).gates if g.kind is GateKind.H
        )

    def test_ghz_x_basis_pipeline_pure_entangling(self):
        c = gen_ghz(6, chain="fountain")
        prog = mantra_pipeline(c, PipelineOptions(mode="mantra", x_basis=True))
        assert prog.boundary_crossings() == 0
        assert all(
            s.zone in (Zone.ENTANGLING, Zone.READOUT) for s in prog.steps
        )


class TestPipeline:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pauli_file_pipeline_equiv(self, seed):
        from zonec.frontend import PauliTermFile

        rng = random.Random(seed)
        n = rng.randint(2, 5)
        pf = PauliTermFile(n, tuple(random_term(rng, n) for _ in range(3)))
        reference = Circuit(n, tuple(g for t in pf.terms for g in synth_pauli_path(t).gates))
        prog = mantra_pipeline(pf, PipelineOptions(mode="mantra"))
        flat = Circuit(
            n, tuple(g for g in prog.flatten().gates if g.kind is not GateKind.MEASURE)
        )
        assert_equiv(reference, flat)

    def test_deterministic(self):
        c = gen_ghz(8, chain="parallel")
        a = mantra_pipeline(c, PipelineOptions(mode="mantra"))
        b = mantra_pipeline(c, PipelineOptions(mode="mantra"))
        assert a == b
