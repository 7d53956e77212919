import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dataclasses import fields, replace

from zonec.arch import AtomLayout, LayoutError, MachineConfig, Policy, crossing_time_us
from zonec.cost import (
    CATEGORIES,
    REPORT_KEYS,
    Breakdown,
    breakdown,
    csv_header,
    crosstalk_exposures,
    csv_row,
    fidelity,
    format_record,
    physical_gate_count,
    report_record,
    run,
)
from zonec.frontend import BenchmarkSpec, gen_ghz, gen_ucc_random, parse_benchmark
from zonec.ir import ARITY, NUM_PARAMS, UNPULSED, Circuit, Gate, GateKind, Zone, layer_indices
from zonec.rewrite import MODES, PipelineOptions, _lower, mantra_pipeline
from zonec.scheduler import Event, EventKind, Timeline, _Sim, count_ld_st


def simulate(source, mode="mantra", policy=Policy.TYPE1):
    cfg = replace(MachineConfig(), policy=policy)
    result = run(source, PipelineOptions(mode=mode), cfg)
    return result.timeline, result.program, cfg


def make_timeline(events, n=2, makespan=None, **kw):
    defaults = dict(
        num_qubits=n,
        events=tuple(events),
        makespan_us=makespan if makespan is not None else max(
            (e.end_us for e in events), default=0.0
        ),
        t_in_us={q: 0.0 for q in range(n)},
        t_out_us={q: 0.0 for q in range(n)},
        transfers={},
        measured=(),
    )
    defaults.update(kw)
    return Timeline(**defaults)


class TestBreakdown:
    def test_empty_timeline_all_zero(self):
        bd = breakdown(make_timeline([]))
        assert all(v == 0.0 for v in bd.categories.values())

    def test_single_load_and_pulse(self):
        events = [
            Event(EventKind.LOAD, (0,), 0.0, 20.0 / 0.55),
            Event(EventKind.PULSE_2Q, (0, 1), 40.0, 0.38),
        ]
        bd = breakdown(make_timeline(events))
        assert bd.load_store_us == pytest.approx(36.3636, abs=1e-3)
        assert bd.gate_execution_us == pytest.approx(0.38)

    def test_hidden_transfer_not_charged(self):
        events = [
            Event(EventKind.LOAD, (0,), 0.0, 200.0),
            Event(EventKind.TRAP_TRANSFER, (1,), 0.0, 150.0),
        ]
        bd = breakdown(make_timeline(events))
        assert bd.trap_transfer_us == 0.0

    def test_partially_hidden_transfer(self):
        events = [
            Event(EventKind.LOAD, (0,), 0.0, 100.0),
            Event(EventKind.TRAP_TRANSFER, (1,), 0.0, 150.0),
        ]
        bd = breakdown(make_timeline(events))
        assert bd.trap_transfer_us == pytest.approx(50.0)

    def test_order_invariance(self):
        events = [
            Event(EventKind.SHUTTLE, (0,), 10.0, 5.0),
            Event(EventKind.LOAD, (1,), 0.0, 40.0),
            Event(EventKind.READOUT_IMAGE, (0, 1), 50.0, 500.0),
        ]
        a = breakdown(make_timeline(events))
        b = breakdown(make_timeline(list(reversed(events)), makespan=550.0))
        assert a.categories == b.categories

    def test_readout_move_counts_as_load_store(self):
        events = [Event(EventKind.READOUT_MOVE, (0,), 0.0, 30.0)]
        bd = breakdown(make_timeline(events))
        assert bd.load_store_us == pytest.approx(30.0)


# Travel kinds whose time hides a concurrent trap transfer, and one kind that
# does not.
_HIDING = (EventKind.LOAD, EventKind.STORE, EventKind.READOUT_MOVE, EventKind.EC_PREP)


def _covered_brute_force(t: Event, events) -> float:
    """Length of t's interval covered by the union of the travel intervals,
    summed over the elementary segments between all interval endpoints."""
    travel = [(e.start_us, e.end_us) for e in events if e.kind in _HIDING]
    cuts = sorted({t.start_us, t.end_us} | {x for iv in travel for x in iv
                                              if t.start_us < x < t.end_us})
    return sum(
        b - a
        for a, b in zip(cuts, cuts[1:])
        if any(lo <= a and b <= hi for lo, hi in travel)
    )


# Integer times on a small grid: nested, touching and zero-length intervals
# come up often, and every sum is exact, so the results must match exactly.
_events = st.lists(
    st.builds(
        lambda kind, start, dur: Event(kind, (0,), float(start), float(dur)),
        st.sampled_from(_HIDING + (EventKind.SHUTTLE, EventKind.TRAP_TRANSFER)),
        st.integers(0, 40),
        st.integers(0, 15),
    ),
    max_size=30,
)


class TestTransferOverlap:
    @given(_events)
    @settings(max_examples=300, deadline=None)
    @example([  # nested, touching and zero-length travel around one transfer
        Event(EventKind.TRAP_TRANSFER, (0,), 5.0, 10.0),
        Event(EventKind.LOAD, (0,), 0.0, 20.0),
        Event(EventKind.STORE, (0,), 6.0, 2.0),
        Event(EventKind.EC_PREP, (0,), 15.0, 3.0),
        Event(EventKind.READOUT_MOVE, (0,), 8.0, 0.0),
    ])
    @example([
        Event(EventKind.TRAP_TRANSFER, (0,), 10.0, 10.0),
        Event(EventKind.LOAD, (0,), 0.0, 10.0),  # ends where the transfer starts
        Event(EventKind.STORE, (0,), 20.0, 5.0),  # starts where it ends
        Event(EventKind.LOAD, (0,), 12.0, 0.0),
        Event(EventKind.SHUTTLE, (0,), 10.0, 10.0),
    ])
    def test_exposed_transfer_matches_union_of_intervals(self, events):
        expected = sum(
            e.duration_us - _covered_brute_force(e, events)
            for e in events
            if e.kind is EventKind.TRAP_TRANSFER
        )
        assert breakdown(make_timeline(events)).trap_transfer_us == expected


class TestFidelity:
    def test_zero_gate_run_is_readout_only(self):
        cfg = MachineConfig()
        tl = make_timeline([], measured=(0, 1))
        fr = fidelity(tl, Circuit(2), cfg)
        assert fr.total == pytest.approx(cfg.f_readout**2)

    def test_decoherence_e_minus_one(self):
        cfg = MachineConfig()
        tl = make_timeline([], n=1, t_out_us={0: 4e6}, t_in_us={0: 0.0})
        fr = fidelity(tl, Circuit(1), cfg)
        assert fr.total == pytest.approx(math.exp(-1.0))

    def test_per_qubit_product_matches_total(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, prog, cfg = simulate(src)
        fr = fidelity(tl, prog.flatten(), cfg)
        product = 1.0
        for v in fr.per_qubit.values():
            product *= v
        assert fr.total == pytest.approx(product, rel=1e-12)

    def test_rz_excluded_from_counts(self):
        cfg = MachineConfig()
        c = Circuit(1, (Gate(GateKind.RZ, (0,), (0.4,)),))
        fr = fidelity(make_timeline([], n=1), c, cfg)
        assert fr.n_1q == 0 and fr.total == pytest.approx(1.0)

    def test_monotone_in_gate_count(self):
        cfg = MachineConfig()
        tl = make_timeline([], n=1)
        short = Circuit(1, (Gate(GateKind.H, (0,)),))
        long = Circuit(1, (Gate(GateKind.H, (0,)),) * 5)
        assert fidelity(tl, long, cfg).total < fidelity(tl, short, cfg).total

    def test_type3_crosstalk_penalty(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, prog, cfg = simulate(src, mode="standard", policy=Policy.TYPE3)
        fr = fidelity(tl, prog.flatten(), cfg)
        assert "f_crosstalk" in fr.factors
        assert fr.factors["f_crosstalk"] < 1.0

    def test_ghz40_gate_factor_magnitude(self):
        # 2(n-1)+1 pulsed 1Q gates and n-1 2Q gates for a 40-qubit chain.
        src = gen_ghz(40, chain="path")
        tl, prog, cfg = simulate(src, mode="standard")
        fr = fidelity(tl, prog.flatten(), cfg)
        assert fr.n_1q == 79 and fr.n_2q == 39
        assert fr.factors["f_1q"] * fr.factors["f_2q"] == pytest.approx(
            0.999**79 * 0.995**39
        )


class TestPhysicalCount:
    def test_seven_atoms_per_logical_gate(self):
        cfg = MachineConfig()
        c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 1))))
        assert physical_gate_count(c, cfg) == 14

    def test_ghz_reference_counts(self):
        cfg = MachineConfig()
        for n, expected in ((40, 826), (80, 1666)):
            src = gen_ghz(n, chain="path")
            prog = mantra_pipeline(src, PipelineOptions(mode="standard"))
            assert physical_gate_count(prog.flatten(), cfg) == expected


class TestSerialization:
    def test_report_schema_is_breakdown_fields(self):
        tl, prog, cfg = simulate(gen_ghz(4))
        bd = breakdown(tl)
        rec = report_record(bd, fidelity(tl, prog.flatten(), cfg), 1, 1)
        assert tuple(rec) == REPORT_KEYS == tuple(csv_header().split(","))
        assert REPORT_KEYS[: len(CATEGORIES) + 1] == tuple(
            f.name for f in fields(Breakdown))
        assert tuple(bd.categories) == CATEGORIES

    def test_record_key_order_stable(self):
        src = gen_ghz(4)
        tl, prog, cfg = simulate(src)
        fr = fidelity(tl, prog.flatten(), cfg)
        rec = report_record(breakdown(tl), fr, *count_ld_st(tl))
        assert list(rec) == list(report_record(breakdown(tl), fr, 0, 0))
        text = format_record(rec)
        assert text.splitlines()[0].startswith("load_store_us")

    def test_csv_row_matches_header_width(self):
        src = gen_ghz(4)
        tl, prog, cfg = simulate(src)
        fr = fidelity(tl, prog.flatten(), cfg)
        rec = report_record(breakdown(tl), fr, *count_ld_st(tl))
        header = csv_header(extra=("n",))
        row = csv_row(rec, extra=(4,))
        assert len(header.split(",")) == len(row.split(","))


class TestRun:
    def test_result_matches_layer_calls(self):
        cfg = replace(MachineConfig(), policy=Policy.TYPE2)
        r = run(parse_benchmark("ucc:6:5", seed=3).materialize(),
                PipelineOptions(mode="standard"), cfg)
        assert (r.loads, r.stores) == count_ld_st(r.timeline)
        assert r.flat == r.program.flatten()
        assert r.breakdown == breakdown(r.timeline)
        assert r.phys_gates == physical_gate_count(r.flat, cfg)
        assert r.record == report_record(
            r.breakdown, fidelity(r.timeline, r.flat, cfg), r.loads, r.stores
        )

    def test_oversized_register_fails_before_compiling(self):
        # Compiling a 10^8-qubit register takes seconds; the capacity check
        # needs only its size.
        def no_compile(*args):
            raise AssertionError("the input was compiled before the capacity check")

        with mock.patch("zonec.cost.mantra_pipeline", no_compile):
            with pytest.raises(LayoutError, match="capacity exceeded"):
                run(Circuit(10**8, (Gate(GateKind.H, (0,)),)))

    @pytest.mark.parametrize("bench", ["ghz:8:path", "ucc:5:3", "qaoa-sk:5:1",
                                       "qaoa-pl:6:1", "po:4:1"])
    def test_spec_runs_as_the_source_it_builds(self, bench):
        spec = parse_benchmark(bench, seed=3)
        from_spec, from_source = run(spec), run(spec.materialize())
        assert from_spec.record == from_source.record
        assert from_spec.timeline == from_source.timeline
        assert from_spec.program == from_source.program

    def test_oversized_spec_fails_before_it_is_built(self):
        # Building qaoa-sk:3000 takes minutes; the capacity check needs only
        # the spec's qubit count.
        def no_materialize(spec):
            raise AssertionError(f"{spec} was built before the capacity check")

        with mock.patch.object(BenchmarkSpec, "materialize", no_materialize):
            with pytest.raises(LayoutError, match="capacity exceeded"):
                run(parse_benchmark("qaoa-sk:3000"))

    def test_type1_transfers_charged_once(self):
        # The residents' hand-over and the AOD pickup of the incoming qubit
        # start together; as two events each was charged its own exposed
        # remainder and the categories summed to 1372.529 us.
        h = Gate(GateKind.H, (0,))
        c = Circuit(3, (h, h, Gate(GateKind.CZ, (0, 1)), Gate(GateKind.CZ, (1, 2))))
        r = run(c, PipelineOptions(mode="standard", x_basis=True))
        transfers = [e for e in r.timeline.events if e.kind is EventKind.TRAP_TRANSFER]
        assert len({e.start_us for e in transfers}) == len(transfers)
        assert r.breakdown.makespan_us == pytest.approx(1258.892, abs=1e-3)
        assert sum(r.breakdown.categories.values()) == pytest.approx(
            r.breakdown.makespan_us, rel=1e-12
        )


_RANDOM_KINDS = (GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ, GateKind.CX,
                 GateKind.CZ, GateKind.SWAP, GateKind.RZZ)


@st.composite
def _gates(draw, n):
    kind = draw(st.sampled_from(_RANDOM_KINDS))
    qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))[: ARITY[kind]])
    params = tuple(draw(st.floats(-math.pi, math.pi))
                   for _ in range(NUM_PARAMS[kind]))
    return Gate(kind, qubits, params)


@st.composite
def _sources(draw):
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        return gen_ucc_random(n, draw(st.integers(1, 4)), draw(st.integers(0, 999)))
    gates = draw(st.lists(_gates(n), min_size=1, max_size=14))
    if draw(st.booleans()):
        gates += [Gate(GateKind.MEASURE, (q,)) for q in range(n)]
    return Circuit(n, tuple(gates))


_COMBOS = [
    (replace(MachineConfig(), policy=p), PipelineOptions(mode=m, x_basis=x))
    for p in Policy
    for m in MODES
    for x in (False, True)
]


def _breakdown_reference(timeline) -> dict:
    """``breakdown(timeline).categories`` by a per-transfer rule: each
    transfer clips and sorts the travel events that can meet it, then walks
    them with a cursor. ``breakdown`` merges the travel intervals once
    instead."""
    travel = sorted((e for e in timeline.events if e.kind in _HIDING),
                    key=lambda e: e.start_us)
    starts = [e.start_us for e in travel]
    reach = list(accumulate((e.end_us for e in travel), max))

    def overlap(e):
        first = bisect_right(reach, e.start_us)
        stop = bisect_left(starts, e.end_us, first)
        spans = sorted(
            (max(o.start_us, e.start_us), min(o.end_us, e.end_us))
            for o in travel[first:stop]
            if o.end_us > e.start_us and o.start_us < e.end_us
        )
        covered, cursor = 0.0, e.start_us
        for lo, hi in spans:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    cat = dict.fromkeys(("load_store_us", "trap_transfer_us", "shuttling_us", "readout_us",
                         "error_correction_us", "gate_execution_us"), 0.0)
    for e in timeline.events:
        if e.kind in (EventKind.LOAD, EventKind.STORE, EventKind.READOUT_MOVE):
            cat["load_store_us"] += e.duration_us
        elif e.kind is EventKind.TRAP_TRANSFER:
            cat["trap_transfer_us"] += e.duration_us - overlap(e)
        elif e.kind is EventKind.SHUTTLE:
            cat["shuttling_us"] += e.duration_us
        elif e.kind is EventKind.READOUT_IMAGE:
            cat["readout_us"] += e.duration_us
        elif e.kind is EventKind.EC_PREP:
            cat["error_correction_us"] += e.duration_us
        else:
            cat["gate_execution_us"] += e.duration_us
    return cat


_CROSSING_DEST = {
    EventKind.LOAD: Zone.ENTANGLING,
    EventKind.STORE: Zone.STORAGE,
    EventKind.READOUT_MOVE: Zone.READOUT,
}


def _run_recording_crossings(source, options, cfg):
    """``run``, plus each zone crossing the scheduler emits with a copy of
    the sites its members left."""
    crossings = []
    emit = _Sim.emit

    def recording(sim, kind, qubits, start, dur):
        if kind in _CROSSING_DEST:
            sites = [replace(site) for site in sim.layout.qubits]
            crossings.append((kind, tuple(qubits), dur, AtomLayout(sim.layout.config, sites)))
        emit(sim, kind, qubits, start, dur)

    with mock.patch.object(_Sim, "emit", recording):
        return run(source, options, cfg), crossings


def _expand_cx(circuit):
    """Each CX(c,t) written as H(t) CZ(c,t) H(t), the way the zone steppers
    place it; no idiom is folded."""
    gates = []
    for g in circuit.gates:
        if g.kind is GateKind.CX:
            h = Gate(GateKind.H, (g.qubits[1],))
            gates += (h, Gate(GateKind.CZ, g.qubits), h)
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def _per_qubit(circuit):
    on = [[] for _ in range(circuit.num_qubits)]
    for g in circuit.gates:
        for q in g.qubits:
            on[q].append(g)
    return on


def _exposures_reference(program):
    """``crosstalk_exposures`` by the rule as first written: each pulse layer
    of each step charges every qubit of the register it does not drive."""
    register = set(range(program.num_qubits))
    x1q, xcz = [0] * len(register), [0] * len(register)
    for step in program.steps:
        if step.zone is Zone.READOUT:
            continue
        bucket = xcz if step.zone is Zone.ENTANGLING else x1q
        for layer in layer_indices(step.gates):
            driven = {q for i in layer if step.gates[i].kind not in UNPULSED
                      for q in step.gates[i].qubits}
            if driven:
                for q in register - driven:
                    bucket[q] += 1
    return x1q, xcz


class TestRunInvariants:
    @given(_sources())
    @example(Circuit(4, (Gate(GateKind.CX, (0, 3)),)))
    @settings(max_examples=60, deadline=None)
    def test_schedule_and_cost_invariants(self, source):
        for cfg, options in _COMBOS:
            r, crossings = _run_recording_crossings(source, options, cfg)
            tl, makespan = r.timeline, r.timeline.makespan_us
            # Every zone crossing lasts its slowest member's travel, however
            # long its overlapping trap transfer.
            assert [c[:3] for c in crossings] == [
                (e.kind, e.qubits, e.duration_us) for e in tl.events if e.kind in _CROSSING_DEST
            ]
            for kind, qubits, dur, sites in crossings:
                dest = _CROSSING_DEST[kind]
                assert dur == max(crossing_time_us(sites, (q,), dest) for q in qubits)
            # The zone steppers keep each qubit's gates, MEASURE included, in
            # the order of the circuit they step (CX written as H CZ H).
            if isinstance(source, Circuit):
                lowered = _expand_cx(_lower(source, options)[0])
                assert _per_qubit(r.flat) == _per_qubit(lowered)
            for q in range(tl.num_qubits):
                assert tl.t_in_us[q] + tl.t_out_us[q] == pytest.approx(makespan, rel=1e-9)
            assert all(e.end_us <= makespan * (1 + 1e-12) for e in tl.events)
            # The per-qubit transfer counts and the measured qubits can be
            # read off the events.
            assert tl.transfers == Counter(
                q for e in tl.events if e.kind is EventKind.TRAP_TRANSFER for q in e.qubits
            )
            assert tl.measured == tuple(sorted(
                {q for e in tl.events if e.kind is EventKind.READOUT_IMAGE for q in e.qubits}
            ))
            fr = r.fidelity
            assert fr.total == pytest.approx(math.prod(fr.factors.values()), rel=1e-9)
            assert fr.total == pytest.approx(math.prod(fr.per_qubit.values()), rel=1e-9)
            assert sum(r.breakdown.categories.values()) == pytest.approx(
                makespan, rel=1e-9
            )

    @given(_sources())
    @example(Circuit(4, (Gate(GateKind.CX, (0, 3)),)))
    @settings(max_examples=60, deadline=None)
    def test_breakdown_matches_per_transfer_reference(self, source):
        # The scheduler's travel events never overlap, so the merged union
        # holds each one as its own piece and both rules add the same floats.
        for cfg, options in _COMBOS:
            tl = run(source, options, cfg).timeline
            travel = sorted((e.start_us, e.end_us) for e in tl.events if e.kind in _HIDING)
            assert all(b[0] >= a[1] for a, b in zip(travel, travel[1:]))
            assert breakdown(tl).categories == _breakdown_reference(tl)

    @given(_sources())
    @settings(max_examples=60, deadline=None)
    def test_crosstalk_exposures_match_per_layer_reference(self, source):
        for cfg, options in _COMBOS:
            if cfg.policy is Policy.TYPE3:
                r = run(source, options, cfg)
                assert crosstalk_exposures(r.timeline) == _exposures_reference(r.program)

    @pytest.mark.parametrize("mode", MODES)
    def test_type2_load_waits_for_its_trap_transfer(self, mode):
        # The transfer that picks up type 2's one load outlasts the load's
        # travel here, so the clock must wait for it.
        c = Circuit(4, (Gate(GateKind.CX, (0, 3)),))
        r = run(c, PipelineOptions(mode=mode), replace(MachineConfig(), policy=Policy.TYPE2))
        assert r.timeline.makespan_us == pytest.approx(610.902, abs=1e-3)
        assert sum(r.breakdown.categories.values()) == pytest.approx(
            r.timeline.makespan_us, rel=1e-12
        )

    @given(_sources())
    @settings(max_examples=60, deadline=None)
    def test_shuttles_move_only_aod_held_qubits(self, source):
        # Every qubit starts in an SLM trap and each trap transfer flips it.
        for cfg, options in _COMBOS:
            if cfg.policy is Policy.TYPE3:
                continue
            in_aod = set()
            for e in run(source, options, cfg).timeline.events:
                if e.kind is EventKind.TRAP_TRANSFER:
                    in_aod.symmetric_difference_update(e.qubits)
                elif e.kind is EventKind.SHUTTLE:
                    assert in_aod.issuperset(e.qubits), e


# A faster machine: the AOD twice as fast, or one duration or distance
# halved.
_FASTER = [("aod_speed_um_per_us", 2.0)] + [
    (name, 0.5) for name in ("pulse_1q_us", "pulse_2q_us", "trap_transfer_time_us",
                             "zone_gap_um", "pitch_entangling_um", "readout_time_us")
]
_TIMING = ("pulse_1q_us", "pulse_2q_us", "trap_transfer_time_us", "readout_time_us",
           "aod_speed_um_per_us")
_FIDELITIES = ("f_1q", "f_2q", "f_transfer", "f_readout")


def _scaled(cfg, name, factor):
    return replace(cfg, **{name: getattr(cfg, name) * factor})


def _relabelled(circuit, perm):
    """``circuit`` with qubit q renamed perm[q]."""
    return Circuit(circuit.num_qubits, tuple(
        Gate(g.kind, tuple(perm[q] for q in g.qubits), g.params) for g in circuit.gates))


class TestMetamorphic:
    """Relations between runs on changed machines or inputs. Each holds at
    the time of writing over every policy, mode and x-basis choice; a
    scheduler change that breaks one on purpose says which and why."""

    @given(_sources(), st.sampled_from(_COMBOS), st.sampled_from(_FASTER))
    @settings(max_examples=60, deadline=None)
    def test_a_faster_machine_never_takes_longer(self, source, combo, knob):
        cfg, options = combo
        slow = run(source, options, cfg).timeline.makespan_us
        fast = run(source, options, _scaled(cfg, *knob)).timeline.makespan_us
        assert fast <= slow

    @given(_sources(), st.sampled_from(_COMBOS), st.sampled_from(_TIMING),
           st.sampled_from((0.1, 0.5, 2.0, 5.0)))
    @settings(max_examples=60, deadline=None)
    def test_ld_st_ignores_timing(self, source, combo, name, factor):
        cfg, options = combo
        r = run(source, options, cfg)
        scaled = run(source, options, _scaled(cfg, name, factor))
        assert (scaled.loads, scaled.stores) == (r.loads, r.stores)

    # A Pauli term's synthesis picks its target by qubit index, so only a
    # circuit's compile follows a relabelling.
    @given(_sources().filter(lambda s: isinstance(s, Circuit)), st.sampled_from(_COMBOS),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_ld_st_ignores_qubit_labels(self, source, combo, data):
        cfg, options = combo
        perm = data.draw(st.permutations(range(source.num_qubits)))
        r = run(source, options, cfg)
        relabelled = run(_relabelled(source, perm), options, cfg)
        assert (relabelled.loads, relabelled.stores) == (r.loads, r.stores)

    @given(_sources(), st.sampled_from(_COMBOS), st.sampled_from(_FIDELITIES))
    @settings(max_examples=60, deadline=None)
    def test_better_operations_never_lower_fidelity(self, source, combo, name):
        cfg, options = combo
        f = getattr(cfg, name)
        worse = run(source, options, cfg).fidelity.total
        better = run(source, options, replace(cfg, **{name: f + (1.0 - f) / 2})).fidelity.total
        assert better >= worse
