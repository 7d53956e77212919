import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zonec import rewrite
from zonec.frontend import gen_ghz, parse_benchmark
from zonec.ir import (
    ARITY,
    NUM_PARAMS,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    PauliTerm,
    PauliTermFile,
    Zone,
)
from zonec.oracle import (
    adiabatic_matrix,
    cphase_matrix,
    equiv_up_to_global_phase,
    lp_matrix,
    rzz_matrix,
    unitary_of,
)
from zonec.rewrite import (
    MODES,
    PROTOCOLS,
    PipelineOptions,
    ZoneStep,
    ZoneStepProgram,
    absorb_x_basis,
    adiabatic_phases,
    align_zone_steps,
    cancel_hadamard_pairs,
    cphase_phi,
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
from zonec.rewrite import _check_readout, _fold_zz_idioms, _lower, _merge_steps


def gate_bits(g: Gate):
    """A gate with each qubit and parameter by type and value, each float
    by its bits, so 0.0 != -0.0 and 1 != 1.0."""
    return (g.kind, tuple((type(q), q) for q in g.qubits),
            tuple((type(p), float.hex(p) if isinstance(p, float) else repr(p))
                  for p in g.params))


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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_lp_keeps_its_rzz_parameter_tuple(self, protocol):
        rzz = Gate(GateKind.RZZ, (0, 1), (0.4,))
        (lp,) = [g for g in substitute_rzz(Circuit(2, (rzz,)), protocol).gates
                 if g.kind is GateKind.LP]
        assert lp.params is rzz.params

    def test_substitute_introduces_no_storage_gates(self):
        c = Circuit(3, (Gate(GateKind.RZZ, (0, 2), (1.1,)),))
        out = substitute_rzz(c)
        assert all(g.zone is Zone.ENTANGLING for g in out.gates)


_wide_angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


class TestRecipes:
    @given(_wide_angles)
    def test_cphase_recipe(self, g):
        u = lp_matrix(g) @ cphase_matrix(cphase_phi(g))
        assert equiv_up_to_global_phase(u, rzz_matrix(g), 1e-12)

    @given(_wide_angles, _wide_angles)
    def test_adiabatic_recipe(self, g, phi2):
        u = adiabatic_matrix(*adiabatic_phases(g, phi2)) @ lp_matrix(g)
        assert equiv_up_to_global_phase(u, rzz_matrix(g), 1e-12)

    def test_cphase_angle_formula(self):
        assert cphase_phi(0.7) == pytest.approx(-2 * 0.7 - np.pi)

    def test_adiabatic_angle_formula(self):
        assert adiabatic_phases(0.7, 0.2) == pytest.approx(
            ((np.pi + 2 * 0.7 + 0.2) / 2, 0.2))


class TestAnglesWithoutNumpy:
    """The phase formulas use math.pi so the compile path never loads numpy;
    every angle must stay the same double the numpy.pi formulas gave."""

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @given(finite)
    def test_cphase_phi_is_bit_identical(self, g):
        assert cphase_phi(g) == -2.0 * g - np.pi

    @given(finite, finite)
    def test_adiabatic_phi1_is_bit_identical(self, g, phi2):
        assert adiabatic_phases(g, phi2)[0] == (np.pi + 2.0 * g + phi2) / 2.0


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


_NO_CX_FILLER = (GateKind.H, GateKind.RZ, GateKind.RX, GateKind.X, GateKind.CZ)


@st.composite
def planted_idiom_circuits(draw):
    """CX-form ZZ idioms planted among random gates that hold no CX: runs of
    back-to-back idioms that share a target or a control, each idiom with
    gates on other qubits interleaved. Returns the circuit and the RZZ each
    planted idiom equals."""
    n = draw(st.integers(2, 5))

    def filler(free):
        kind = draw(st.sampled_from([k for k in _NO_CX_FILLER if ARITY[k] <= len(free)]))
        qubits = tuple(draw(st.permutations(free))[: ARITY[kind]])
        return Gate(kind, qubits, tuple(draw(_angles) for _ in range(NUM_PARAMS[kind])))

    gates: list[Gate] = []
    planted: list[Gate] = []
    while len(gates) < 40:
        shape = draw(st.sampled_from(("target", "control", "gate", "stop")))
        if shape == "stop":
            break
        if shape == "gate":
            gates.append(filler(list(range(n))))
            continue
        shared = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 3))):
            other = draw(st.sampled_from([q for q in range(n) if q != shared]))
            a, b = (other, shared) if shape == "target" else (shared, other)
            theta = draw(_angles)
            rest = [q for q in range(n) if q not in (a, b)]
            cx = Gate(GateKind.CX, (a, b))
            gates.append(cx)
            for g in (Gate(GateKind.RZ, (b,), (theta,)), cx):
                if rest:
                    gates += [filler(rest) for _ in range(draw(st.integers(0, 2)))]
                gates.append(g)
            planted.append(Gate(GateKind.RZZ, (a, b), (theta,)))
    return Circuit(n, tuple(gates)), planted


def _reference_fold(circuit, matches=None):
    """``_fold_zz_idioms`` before its loop was tightened and before the H
    form joined the CX form's tail walk: the same one-pass algorithm, with a
    closure to find each qubit's next live gate, a separate match of the H
    form's first CZ and control check, and its own tails. Each fold's gate
    positions, opener first, are appended to ``matches`` if given."""
    gates = list(circuit.gates)
    num_qubits = circuit.num_qubits
    on: list[list[int]] = [[] for _ in range(num_qubits)]
    for i, g in enumerate(gates):
        for q in g.qubits:
            on[q].append(i)
    seen = [0] * num_qubits
    end = len(gates)
    dead = [False] * end

    def next_live(q, r):
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
            tail = (GateKind.RZ, GateKind.CX)
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
            if on[a][ra] != j:
                continue
            ra, rb = ra + 1, rb + 1
            tail = (GateKind.H, GateKind.RZ, GateKind.H, GateKind.CZ, GateKind.H)
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
                if g.qubits != (a, b):
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
            if matches is not None:
                matches.append(matched)
    return [g for g, d in zip(gates, dead) if not d]


class TestSharedTuples:
    @given(idiom_circuits())
    @settings(max_examples=300, deadline=None)
    def test_rzz_holds_its_idioms_tuples(self, c):
        # Each folded RZZ holds its RZ's parameter tuple, and its CX's qubit
        # tuple or, in the H form, its first CZ's when that is (a, b).
        matches = []
        _reference_fold(c, matches)
        inputs = {id(g) for g in c.gates}
        folded = [g for g in _fold_zz_idioms(c) if id(g) not in inputs]
        assert len(folded) == len(matches)
        for rzz, matched in zip(folded, matches):
            opener, first, *_ = (c.gates[j] for j in matched)
            rz = next(c.gates[j] for j in matched if c.gates[j].kind is GateKind.RZ)
            assert rzz.params is rz.params
            if opener.kind is GateKind.CX:
                assert rzz.qubits is opener.qubits
            elif first.qubits == rzz.qubits:
                assert rzz.qubits is first.qubits

    @given(idiom_circuits(), st.sampled_from(PROTOCOLS))
    @settings(max_examples=300, deadline=None)
    def test_protocol_gates_share_one_tuple_per_angle(self, c, protocol):
        rzz = [g for g in _fold_zz_idioms(c) if g.kind is GateKind.RZZ]
        out = substitute_rzz(c, protocol).gates
        lp = [i for i, g in enumerate(out) if g.kind is GateKind.LP]
        assert len(lp) == len(rzz)
        by_angle = {}
        for i, r in zip(lp, rzz):
            gamma = r.params[0]
            pulse = out[i - 1] if protocol == "adiabatic" else out[i + 1]
            expected = (adiabatic_phases(gamma) if protocol == "adiabatic"
                        else (cphase_phi(gamma),))
            # A fold makes a new (a, b) for each CZ(b, a) form, so the
            # qubits are compared by value.
            assert out[i].params is r.params and out[i].qubits == r.qubits
            assert pulse.qubits is out[i].qubits
            assert gate_bits(pulse) == gate_bits(Gate(pulse.kind, r.qubits, expected))
            assert by_angle.setdefault(float.hex(gamma), pulse.params) is pulse.params

    @pytest.mark.parametrize("lower", [lower_cx_to_cz, lower_rzz_to_cx, layer_zone_steps])
    def test_lowering_keeps_one_tuple_per_qubit(self, lower):
        # One 1-tuple per int qubit; an np.int64 or bool target equals an
        # int one, yet keeps its own tuple and type.
        kind, single = ((GateKind.RZZ, GateKind.RZ) if lower is lower_rzz_to_cx
                        else (GateKind.CX, GateKind.H))
        params = (0.3,) if kind is GateKind.RZZ else ()
        pairs = [(0, 1), (2, 1), (0, 1), (2, np.int64(1)), (0, True)]
        c = Circuit(3, tuple(Gate(kind, pair, params) for pair in pairs))
        out = lower(c)
        gates = ([g for s in out.steps for g in s.gates] if lower is layer_zone_steps
                 else out.gates)
        assert {id(g.qubits) for g in gates if len(g.qubits) == 2} <= {
            id(g.qubits) for g in c.gates}
        ones = [g for g in gates if len(g.qubits) == 1]
        singles = {}
        assert all(singles.setdefault(g.qubits, g.qubits) is g.qubits
                   for g in ones if type(g.qubits[0]) is int)
        per_gate = 1 if kind is GateKind.RZZ else 2  # CX RZ CX, or H CZ H
        expected = Counter(gate_bits(Gate(single, (t,), params)) for _, t in pairs)
        assert Counter(gate_bits(g) for g in ones) == Counter(
            {bits: per_gate * k for bits, k in expected.items()})


@st.composite
def planted_both_form_circuits(draw):
    """``planted_idiom_circuits``' recipe with both idiom forms and any gate
    in between: runs of back-to-back idioms that share a target or a
    control, gates on other qubits interleaved, and in the H form sometimes
    a gate on the control between the opening H and the first CZ, which
    blocks that fold."""
    n = draw(st.integers(2, 5))

    def filler(free):
        kind = draw(st.sampled_from([k for k in _FILLER_KINDS if ARITY[k] <= len(free)]))
        qubits = tuple(draw(st.permutations(free))[: ARITY[kind]])
        return Gate(kind, qubits, tuple(draw(_angles) for _ in range(NUM_PARAMS[kind])))

    gates: list[Gate] = []
    while len(gates) < 60:
        shape = draw(st.sampled_from(("target", "control", "gate", "stop")))
        if shape == "stop":
            break
        if shape == "gate":
            gates.append(filler(list(range(n))))
            continue
        shared = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 3))):
            other = draw(st.sampled_from([q for q in range(n) if q != shared]))
            a, b = (other, shared) if shape == "target" else (shared, other)
            rz = _rz(b, draw(_angles))
            if draw(st.booleans()):
                cx = Gate(GateKind.CX, (a, b))
                opening, rest_of_idiom = cx, (rz, cx)
            else:
                cz = _cz(*draw(st.sampled_from([(a, b), (b, a)])))
                opening, rest_of_idiom = _h(b), (cz, _h(b), rz, _h(b), cz, _h(b))
            gates.append(opening)
            if opening.kind is GateKind.H and draw(st.booleans()):
                gates.append(filler([a]))
            rest = [q for q in range(n) if q not in (a, b)]
            for g in rest_of_idiom:
                if rest:
                    gates += [filler(rest) for _ in range(draw(st.integers(0, 2)))]
                gates.append(g)
    return Circuit(n, tuple(gates))


class TestFoldBeforeLowering:
    @given(planted_idiom_circuits())
    @settings(max_examples=200, deadline=None)
    def test_lowering_folds_every_planted_idiom(self, case):
        c, planted = case
        out = lower_cx_to_cz(c)
        assert_equiv(c, out)
        assert all(g.kind is not GateKind.CX for g in out.gates)
        assert not Counter(planted) - Counter(g for g in out.gates if g.kind is GateKind.RZZ)

    def test_cx_free_circuit_comes_back_as_is(self):
        for c in (parse_benchmark("qaoa-sk:6:2").materialize(),
                  synth_pauli_fountain(PauliTerm("XZYZ", 0.3))):
            assert lower_cx_to_cz(c) is c

    def test_cx_free_back_to_back_lowered_idioms_fold(self):
        # The two idioms share the H(0) H(0) seam that H-pair cancellation
        # removes; both fold, with no CX anywhere in the circuit.
        idiom = (_h(0), _cz(1, 0), _h(0), _rz(0, 0.3), _h(0), _cz(1, 0), _h(0))
        c = Circuit(4, idiom * 2)
        assert [g.kind for g in lower_cx_to_cz(c).gates] == [GateKind.RZZ] * 2
        program = mantra_pipeline(c)
        assert len(program.steps) == 1
        native = [g for g in program.steps[0].gates if g.kind in (GateKind.AD, GateKind.LP)]
        assert len(native) == 4
        assert_equiv(c, program.flatten())

    @given(planted_both_form_circuits())
    @settings(max_examples=300, deadline=None)
    def test_fold_equals_reference(self, c):
        assert _fold_zz_idioms(c) == _reference_fold(c)

    def test_cx_and_cz_free_circuit_is_not_folded(self, monkeypatch):
        def fold(circuit):
            raise AssertionError("folded a circuit with no CX and no CZ")

        monkeypatch.setattr(rewrite, "_fold_zz_idioms", fold)
        native = parse_benchmark("qaoa-sk:6:2").materialize()
        out = substitute_rzz(native)
        expected = []
        for g in native.gates:
            if g.kind is GateKind.RZZ:
                expected += (Gate(GateKind.AD, g.qubits, adiabatic_phases(g.params[0])),
                             Gate(GateKind.LP, g.qubits, g.params))
            else:
                expected.append(g)
        assert list(out.gates) == expected
        rzz_free = Circuit(2, (_h(0), Gate(GateKind.RX, (1,), (0.2,)), _rz(0, 0.3)))
        assert substitute_rzz(rzz_free) is rzz_free

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("spec", ["qaoa-sk:8:2", "qaoa-pl:12:2", "po:12:3", "qaoa-sk:24:2"])
    def test_written_idioms_compile_as_native_rzz(self, spec, protocol):
        # Each RZZ written as CX RZ CX; back-to-back idioms share targets.
        native = parse_benchmark(spec, seed=10).materialize()
        options = PipelineOptions(mode="mantra", protocol=protocol)
        assert mantra_pipeline(lower_rzz_to_cx(native), options) == mantra_pipeline(native, options)


@st.composite
def pass_input_circuits(draw):
    """``idiom_circuits`` with SWAPs, RZZs and adjacent H pairs inserted."""
    c = draw(idiom_circuits())
    n = c.num_qubits
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    gates = list(c.gates)
    for shape in draw(st.lists(st.sampled_from(("swap", "rzz", "hh")), max_size=4)):
        if shape == "swap":
            extra = [Gate(GateKind.SWAP, tuple(draw(pair)))]
        elif shape == "rzz":
            extra = [Gate(GateKind.RZZ, tuple(draw(pair)), (draw(_angles),))]
        else:
            extra = [_h(draw(st.integers(0, n - 1)))] * 2
        k = draw(st.integers(0, len(gates)))
        gates[k:k] = extra
    return Circuit(n, tuple(gates))


class TestUnchangedPassThrough:
    PASSES = {
        "lower_cx_to_cz": lower_cx_to_cz,
        "cancel_hadamard_pairs": cancel_hadamard_pairs,
        "substitute_rzz": substitute_rzz,
        "lower_swap": lambda c: lower_swap(c)[0],
        "lower_rzz_to_cx": lower_rzz_to_cx,
    }

    @given(pass_input_circuits())
    @settings(max_examples=200, deadline=None)
    def test_pass_returns_its_input_exactly_when_gates_stay(self, c):
        for name, run in self.PASSES.items():
            out = run(c)
            assert (out is c) == (out.gates == c.gates), name
        lowered, slots = lower_swap(c)
        if lowered is c:
            assert slots == tuple(range(c.num_qubits))


def _basis_change(term, invert):
    """H on each X position and RX(+-pi/2) on each Y position, ascending."""
    angle = -math.pi / 2 if invert else math.pi / 2
    return [_h(q) if c == "X" else Gate(GateKind.RX, (q,), (angle,))
            for q, c in enumerate(term.label) if c in "XY"]


def _fountain_reference(term):
    """``synth_pauli_fountain`` as first written: the full fountain with its
    basis changes, then H-pair cancellation."""
    n = term.num_qubits
    if term.weight == 0:
        return Circuit(n)
    target, others = term.support[0], term.support[1:]
    gates = _basis_change(term, invert=False)
    if others:
        gates += [_h(target)] + [_cz(q, target) for q in others] + [_h(target)]
    gates.append(_rz(target, term.theta))
    if others:
        gates += [_h(target)] + [_cz(q, target) for q in reversed(others)] + [_h(target)]
    gates += _basis_change(term, invert=True)
    return cancel_hadamard_pairs(Circuit(n, tuple(gates)))


class TestPauliSynthesis:
    @given(st.text("IXYZ", min_size=1, max_size=7), _angles)
    @settings(max_examples=300, deadline=None)
    def test_fountain_equals_reference_and_has_no_h_pair(self, label, theta):
        term = PauliTerm(label, theta)
        fountain = synth_pauli_fountain(term)
        assert fountain == _fountain_reference(term)
        assert cancel_hadamard_pairs(fountain) is fountain
        # So no CX, SWAP or RZZ lowering pass can change a fountain.
        assert not {g.kind for g in fountain.gates} & {GateKind.CX, GateKind.SWAP, GateKind.RZZ}

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fountain_matches_path(self, seed):
        rng = random.Random(seed)
        t = random_term(rng, rng.randint(2, 6))
        path = synth_pauli_path(t)
        # So no RZZ or SWAP lowering pass can change a path.
        assert not {g.kind for g in path.gates} & {GateKind.RZZ, GateKind.SWAP}
        assert_equiv(synth_pauli_fountain(t), path)

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
    """How the readout check names each gate that follows its qubit's
    MEASURE."""
    measured, late = set(), set()
    for g in circuit.gates:
        if g.kind is GateKind.MEASURE:
            measured.add(g.qubits[0])
        else:
            late.update(f"{g.kind.value} on qubit {q}" for q in g.qubits if q in measured)
    return late


@st.composite
def readout_circuits(draw):
    """Random circuits of CX, SWAP, H pairs, ``cx; rz; cx`` idioms and
    single H, RZ and MEASURE gates, MEASUREs anywhere: the shapes that the
    passes before zone stepping lower, cancel, fold or relabel."""
    n = draw(st.integers(2, 5))
    gates = []
    for shape in draw(st.lists(st.sampled_from(
            ["cx", "swap", "hh", "idiom", "h", "rz", "measure"]), max_size=24)):
        a, b = draw(st.permutations(range(n)))[:2]
        cx = Gate(GateKind.CX, (a, b))
        gates += {
            "cx": [cx],
            "swap": [Gate(GateKind.SWAP, (a, b))],
            "hh": [Gate(GateKind.H, (a,))] * 2,
            "idiom": [cx, Gate(GateKind.RZ, (b,), (0.3,)), cx],
            "h": [Gate(GateKind.H, (a,))],
            "rz": [Gate(GateKind.RZ, (a,), (0.7,))],
            "measure": [Gate(GateKind.MEASURE, (a,))],
        }[shape]
    return Circuit(n, tuple(gates))


class TestZoneSteps:
    def test_zone_step_is_a_slotted_frozen_value(self):
        step = ZoneStep(Zone.STORAGE, (_h(0),))
        assert not hasattr(step, "__dict__")
        assert step == ZoneStep(Zone.STORAGE, (_h(0),))
        with pytest.raises(AttributeError):
            step.zone = Zone.ENTANGLING

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

    @pytest.mark.parametrize("steps", [align_zone_steps, layer_zone_steps],
                             ids=["align", "layer"])
    def test_swap_raises_in_both_modes(self, steps):
        # A SWAP is no entangling pulse: lower_swap relabels it away first.
        c = Circuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.SWAP, (0, 1)),
                        Gate(GateKind.CZ, (1, 2))))
        with pytest.raises(ValueError, match="requires a SWAP-free circuit"):
            steps(c)

    def test_merge_drops_empty_segments_and_joins_equal_zones(self):
        cz = Gate(GateKind.CZ, (0, 1))
        segments = iter([(Zone.STORAGE, [_h(0)]), (Zone.ENTANGLING, []), (Zone.STORAGE, [_h(1)]),
                         (Zone.ENTANGLING, [cz]), (Zone.READOUT, [])])
        assert _merge_steps(segments) == (ZoneStep(Zone.STORAGE, (_h(0), _h(1))),
                                          ZoneStep(Zone.ENTANGLING, (cz,)))

    def test_adjacent_steps_differ(self):
        with pytest.raises(Exception):
            ZoneStepProgram(
                2,
                (
                    ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (0,)),)),
                    ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (1,)),)),
                ),
            )

    @pytest.mark.parametrize("n", [0, -1])
    def test_register_needs_a_qubit(self, n):
        with pytest.raises(CircuitError, match="circuit needs at least one qubit"):
            ZoneStepProgram(n, ())

    def test_gate_zone_must_match_step(self):
        with pytest.raises(Exception):
            ZoneStepProgram(1, (ZoneStep(Zone.ENTANGLING, (Gate(GateKind.H, (0,)),)),))

    def test_readout_step_is_terminal(self):
        def readout(*qubits):
            return ZoneStep(Zone.READOUT, tuple(Gate(GateKind.MEASURE, (q,)) for q in qubits))

        with pytest.raises(ValueError, match="^H on qubit 0 after its MEASURE; readout is terminal$"):
            ZoneStepProgram(2, (readout(0), ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (0,)),)),
                                ZoneStep(Zone.ENTANGLING, (_cz(0, 1),)), readout(0)))
        with pytest.raises(ValueError, match="^CZ on qubit 1 after its MEASURE"):
            ZoneStepProgram(2, (readout(1), ZoneStep(Zone.ENTANGLING, (_cz(0, 1),))))
        # A MEASURE may follow a MEASURE, and unmeasured qubits go on.
        program = ZoneStepProgram(2, (readout(0), ZoneStep(Zone.STORAGE, (_h(1),)), readout(0, 1)))
        assert [s.zone for s in program.steps] == [Zone.READOUT, Zone.STORAGE, Zone.READOUT]

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
        for mode in MODES:
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


@st.composite
def pauli_files(draw):
    """2-6 qubits and 0-6 terms, identity terms included."""
    n = draw(st.integers(2, 6))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.builds(PauliTerm, labels, _angles), max_size=6))
    return PauliTermFile(n, tuple(terms))


# Angles that are equal but differ in sign or type, and two plain ones.
_EXACT_ANGLES = (0.5, -1.25, 0.0, -0.0, 0, 1, 1.0, np.float64(1.0))
_EXACT_ANGLE_FILE = PauliTermFile(2, (PauliTerm("ZI", 0.0), PauliTerm("ZI", -0.0),
                                      PauliTerm("IZ", 1), PauliTerm("IZ", 1.0)))


@st.composite
def repeating_pauli_files(draw):
    """2-4 qubits and 0-10 terms over eight angles, some equal but of other
    bits or type, so equal terms, and equal gates in different terms,
    recur."""
    n = draw(st.integers(2, 4))
    labels = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.builds(PauliTerm, labels, st.sampled_from(_EXACT_ANGLES)),
                          max_size=10))
    return PauliTermFile(n, tuple(terms))


def _pauli_pipeline_reference(source, mode, protocol):
    """Each non-identity term through every pass of the circuit path, with
    no x-basis absorption, stepped; the steps concatenated and merged, and
    one readout step measuring every qubit."""
    synth, steps = ((synth_pauli_fountain, align_zone_steps) if mode == "mantra"
                    else (synth_pauli_path, layer_zone_steps))
    raw = []
    for term in source.terms:
        if term.weight:
            lowered = _lower(synth(term), PipelineOptions(mode, protocol))[0]
            raw += [(s.zone, list(s.gates)) for s in steps(lowered).steps]
    n = source.num_qubits
    raw.append((Zone.READOUT, [Gate(GateKind.MEASURE, (q,)) for q in range(n)]))
    return ZoneStepProgram(n, _merge_steps(raw))


class TestPipeline:
    @given(pauli_files(), st.sampled_from(MODES), st.sampled_from(PROTOCOLS), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pauli_file_equals_per_term_pass_chain(self, source, mode, protocol, x_basis):
        options = PipelineOptions(mode, protocol, x_basis)
        assert mantra_pipeline(source, options) == _pauli_pipeline_reference(source, mode, protocol)

    @given(repeating_pauli_files(), st.sampled_from(MODES), st.sampled_from(PROTOCOLS))
    @example(_EXACT_ANGLE_FILE, "mantra", "adiabatic")
    @example(_EXACT_ANGLE_FILE, "standard", "adiabatic")
    @settings(max_examples=200, deadline=None)
    def test_pauli_file_holds_one_object_per_distinct_gate(self, source, mode, protocol):
        # Distinct by kind, qubits and each parameter's type and bits.
        program = mantra_pipeline(source, PipelineOptions(mode, protocol))
        gates = [g for step in program.steps for g in step.gates]
        assert len({id(g) for g in gates}) == len({gate_bits(g) for g in gates})

    @given(repeating_pauli_files(), st.sampled_from(MODES), st.sampled_from(PROTOCOLS))
    @settings(max_examples=200, deadline=None)
    def test_pauli_file_keeps_every_parameter_bit_for_bit(self, source, mode, protocol):
        program = mantra_pipeline(source, PipelineOptions(mode, protocol))
        reference = _pauli_pipeline_reference(source, mode, protocol)
        assert [[gate_bits(g) for g in s.gates] for s in program.steps] == [
            [gate_bits(g) for g in s.gates] for s in reference.steps]

    @pytest.mark.parametrize("mode", MODES)
    def test_equal_angles_of_other_bits_or_type_keep_them(self, mode):
        program = mantra_pipeline(_EXACT_ANGLE_FILE, PipelineOptions(mode))
        rz = [g.params[0] for s in program.steps for g in s.gates if g.kind is GateKind.RZ]
        assert [(type(t), math.copysign(1.0, t)) for t in rz] == [
            (float, 1.0), (float, -1.0), (int, 1.0), (float, 1.0)]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pauli_file_pipeline_equiv(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        pf = PauliTermFile(n, tuple(random_term(rng, n) for _ in range(3)))
        reference = Circuit(n, tuple(g for t in pf.terms for g in synth_pauli_path(t).gates))
        prog = mantra_pipeline(pf, PipelineOptions(mode="mantra"))
        flat = Circuit(
            n, tuple(g for g in prog.flatten().gates if g.kind is not GateKind.MEASURE)
        )
        assert_equiv(reference, flat)

    @given(readout_circuits())
    @settings(max_examples=300, deadline=None)
    def test_readout_verdict_is_the_inputs_in_both_modes(self, circuit):
        # Both modes judge the program as written: H pairs that cancel, an
        # idiom that folds and a SWAP that relabels neither hide nor rename
        # a gate after its qubit's MEASURE.
        late = _gates_after_measure(circuit)
        for mode in MODES:
            if not late:
                mantra_pipeline(circuit, PipelineOptions(mode=mode))
                continue
            with pytest.raises(ValueError, match="after its MEASURE; readout is terminal") as err:
                mantra_pipeline(circuit, PipelineOptions(mode=mode))
            assert str(err.value).partition(" after")[0] in late

    @pytest.mark.parametrize("mode", MODES)
    def test_pauli_file_steps_close_while_terms_compile(self, monkeypatch, mode):
        # A step is built once a segment of another zone follows it, so the
        # first step exists before the last term is synthesised.
        calls = []
        for name in ("_fountain", "_path"):
            synth = getattr(rewrite, name)
            monkeypatch.setattr(rewrite, name,
                                lambda *a, synth=synth: calls.append("term") or synth(*a))
        step = rewrite.ZoneStep
        monkeypatch.setattr(rewrite, "ZoneStep", lambda *a: calls.append("step") or step(*a))
        terms = tuple(PauliTerm(label, 0.5) for label in ("XZI", "IZY", "ZZZ", "YIX"))
        mantra_pipeline(PauliTermFile(3, terms), PipelineOptions(mode=mode))
        assert calls.count("term") == len(terms)
        assert calls.index("step") < len(calls) - 1 - calls[::-1].index("term")

    def test_readout_walked_once_per_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr("zonec.rewrite._check_readout",
                            lambda c: seen.append(c) or _check_readout(c))
        c = gen_ghz(6, chain="parallel")
        for mode in MODES:
            seen.clear()
            mantra_pipeline(c, PipelineOptions(mode=mode))
            assert seen == [c]

    def test_deterministic(self):
        c = gen_ghz(8, chain="parallel")
        a = mantra_pipeline(c, PipelineOptions(mode="mantra"))
        b = mantra_pipeline(c, PipelineOptions(mode="mantra"))
        assert a == b
