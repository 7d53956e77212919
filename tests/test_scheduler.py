import gc
import tracemalloc
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from zonec.arch import (
    AtomLayout,
    LayoutError,
    MachineConfig,
    Policy,
    Trap,
    build_layout,
    crossing_time_us,
    isolation_hop_us,
    land_movers,
)
from zonec.frontend import gen_ghz, parse_benchmark
from zonec.ir import (
    NUM_PARAMS,
    UNPULSED,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Zone,
    layer_indices,
)
from zonec.rewrite import (
    MODES,
    PipelineOptions,
    ZoneStep,
    ZoneStepProgram,
    gate_based_swap_reference,
    mantra_pipeline,
)
from zonec.scheduler import (
    Event,
    EventKind,
    EventLog,
    Timeline,
    _STEANE_PREP_LAYERS,
    _pulsed_layers,
    _step_layers,
    count_ld_st,
    ec_prep_event,
    schedule,
    steane_prep_duration_us,
)


def compile_and_schedule(source, mode="mantra", policy=Policy.TYPE1, x_basis=False):
    from dataclasses import replace

    cfg = replace(MachineConfig(), policy=policy)
    prog = mantra_pipeline(source, PipelineOptions(mode=mode, x_basis=x_basis))
    return schedule(prog, build_layout(cfg, prog.num_qubits), cfg), cfg


class TestLdStCounting:
    def test_fountain_ghz4_one_load_one_store(self):
        tl, _ = compile_and_schedule(gen_ghz(4, chain="fountain"))
        assert count_ld_st(tl) == (1, 1)

    def test_x_basis_ghz_zero(self):
        tl, _ = compile_and_schedule(
            gen_ghz(8, chain="fountain"), x_basis=True
        )
        assert count_ld_st(tl) == (0, 0)

    def test_single_rzz_loads_once_no_store(self):
        c = Circuit(2, (Gate(GateKind.RZZ, (0, 1), (0.6,)),))
        tl, _ = compile_and_schedule(c)
        loads, stores = count_ld_st(tl)
        assert (loads, stores) == (1, 0)
        pulses = [e for e in tl.events if e.kind is EventKind.PULSE_2Q]
        assert len(pulses) == 2  # protocol pair, no intermediate trip

    def test_empty_program_counts_zero(self):
        prog = ZoneStepProgram(2, ())
        cfg = MachineConfig()
        tl = schedule(prog, build_layout(cfg, 2), cfg)
        assert count_ld_st(tl) == (0, 0)

    def test_readout_travel_excluded_from_count(self):
        tl, _ = compile_and_schedule(gen_ghz(4, chain="fountain"))
        assert any(e.kind is EventKind.READOUT_MOVE for e in tl.events)
        assert count_ld_st(tl) == (1, 1)

    def test_readout_move_lasts_its_travel(self):
        # The x-basis fountain makes no load or store. Its readout trip from
        # entangling row 3 at most (12 * 3 + 20 um) is shorter than the trap
        # transfer that picks the qubits up: the move lasts its travel, and
        # imaging waits for the transfer.
        tl, cfg = compile_and_schedule(gen_ghz(12, chain="fountain"), x_basis=True)
        assert count_ld_st(tl) == (0, 0)
        (move,) = [e for e in tl.events if e.kind is EventKind.READOUT_MOVE]
        assert move.duration_us == (12 * 3 + 20) / cfg.aod_speed_um_per_us
        (image,) = [e for e in tl.events if e.kind is EventKind.READOUT_IMAGE]
        assert image.start_us == move.start_us + cfg.trap_transfer_time_us


class TestTimelineInvariants:
    @pytest.mark.parametrize(
        "bench,mode",
        [("ghz:6:parallel", "standard"), ("ghz:6:fountain", "mantra"),
         ("ucc:5:4", "mantra"), ("qaoa-sk:5:2", "mantra")],
    )
    def test_accumulators_sum_to_makespan(self, bench, mode):
        src = parse_benchmark(bench, seed=2).materialize()
        tl, _ = compile_and_schedule(src, mode=mode)
        for q in range(tl.num_qubits):
            total = tl.t_in_us[q] + tl.t_out_us[q]
            assert total == pytest.approx(tl.makespan_us, rel=1e-9)

    def test_no_per_qubit_event_overlap(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, _ = compile_and_schedule(src, mode="standard")
        hidden = (EventKind.TRAP_TRANSFER, EventKind.EC_PREP)
        per_qubit = {}
        for e in tl.events:
            if e.kind in hidden:
                continue  # transfers deliberately overlap concurrent travel
            for q in e.qubits:
                per_qubit.setdefault(q, []).append((e.start_us, e.end_us))
        for spans in per_qubit.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_deterministic(self):
        src = parse_benchmark("qaoa-pl:8:2", seed=5).materialize()
        a, _ = compile_and_schedule(src, mode="standard")
        b, _ = compile_and_schedule(src, mode="standard")
        assert a.to_lines() == b.to_lines()

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("x_basis", [False, True])
    def test_schedule_leaves_its_layout_alone(self, policy, x_basis):
        # The scheduler moves its own copy of the sites: scheduling again on
        # the same layout gives the same timeline, and the layout stays as
        # built.
        cfg = replace(MachineConfig(), policy=policy)
        src = parse_benchmark("qaoa-sk:12:1", seed=0).materialize()
        prog = mantra_pipeline(src, PipelineOptions(x_basis=x_basis))
        layout = build_layout(cfg, prog.num_qubits)
        first = schedule(prog, layout, cfg)
        assert schedule(prog, layout, cfg) == first
        assert layout == build_layout(cfg, prog.num_qubits)

    def test_capacity_mismatch_raises(self):
        prog = mantra_pipeline(gen_ghz(6), PipelineOptions())
        cfg = MachineConfig()
        with pytest.raises(LayoutError):
            schedule(prog, build_layout(cfg, 4), cfg)

    @pytest.mark.parametrize("other", [
        replace(MachineConfig(), zone_gap_um=40.0),
        replace(MachineConfig(), policy=Policy.TYPE3),
    ])
    def test_layout_of_another_machine_raises(self, other):
        # Geometry would come from the layout's config and timings from the
        # scheduler's: a zone gap of 20 um in one and 40 um in the other gave
        # a makespan that matched neither machine.
        prog = mantra_pipeline(gen_ghz(4), PipelineOptions())
        with pytest.raises(LayoutError, match="another machine config"):
            schedule(prog, build_layout(MachineConfig(), prog.num_qubits), other)

    @pytest.mark.parametrize("step, sites", [
        (ZoneStep(Zone.ENTANGLING, (Gate(GateKind.CZ, (0, 5)),)), 2),
        (ZoneStep(Zone.ENTANGLING, (Gate(GateKind.CZ, (0, 5)),)), 8),
        (ZoneStep(Zone.STORAGE, (Gate(GateKind.H, (7,)),)), 8),
    ])
    def test_operand_out_of_range_raises(self, step, sites):
        # A 2-qubit program naming qubit 5 or 7, on a layout with or without
        # that site: the program itself is rejected, before any scheduling.
        cfg = MachineConfig()
        layout = build_layout(cfg, sites)
        with pytest.raises(CircuitError, match=r"^operand q\[\d\] out of range for 2 qubits$"):
            schedule(ZoneStepProgram(2, (step,)), layout, cfg)

    def test_readout_imaged_once(self):
        tl, cfg = compile_and_schedule(gen_ghz(10, chain="path"), mode="standard")
        images = [e for e in tl.events if e.kind is EventKind.READOUT_IMAGE]
        assert len(images) == 1
        assert images[0].duration_us == cfg.readout_time_us


@pytest.mark.parametrize("policy", [Policy.TYPE1, Policy.TYPE2])
@pytest.mark.parametrize("bench", ["ghz:8:parallel", "qaoa-sk:6:1", "ucc:6:4"])
def test_one_landing_per_entangling_layer(monkeypatch, bench, policy):
    # arch lands each layer's movers in one call: one per 2Q pulse.
    calls = []
    monkeypatch.setattr("zonec.scheduler.land_movers",
                        lambda layout, pairs: calls.append(pairs) or land_movers(layout, pairs))
    tl, _ = compile_and_schedule(parse_benchmark(bench).materialize(), policy=policy)
    assert len(calls) == sum(e.kind is EventKind.PULSE_2Q for e in tl.events) > 0


_STEP_KINDS = {
    1: (GateKind.H, GateKind.X, GateKind.RX, GateKind.RZ),
    2: (GateKind.CZ, GateKind.RZZ, GateKind.CPHASE, GateKind.LP, GateKind.AD),
}


@st.composite
def zone_step_gates(draw):
    """The gates of one storage (1Q) or entangling (2Q) step on up to 8
    qubits; half the steps repeat no qubit."""
    arity = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(arity, 8))
    k = draw(st.integers(0, 10))
    if draw(st.booleans()):
        pool = draw(st.permutations(range(n)))
        operands = [tuple(pool[arity * i: arity * (i + 1)]) for i in range(min(k, n // arity))]
    else:
        operands = [tuple(draw(st.permutations(range(n)))[:arity]) for _ in range(k)]
    gates = []
    for qubits in operands:
        kind = draw(st.sampled_from(_STEP_KINDS[arity]))
        gates.append(Gate(kind, qubits, (0.5,) * NUM_PARAMS[kind]))
    return n, tuple(gates)


class TestStepLayers:
    @given(zone_step_gates())
    @settings(max_examples=300, deadline=None)
    def test_layers_and_pulsed_qubits_match_layer_indices(self, case):
        _, gates = case
        used, layers = _step_layers(gates)
        assert used == sorted({q for g in gates for q in g.qubits})
        reference = layer_indices(gates)
        assert [list(layer) for layer in layers] == reference
        pulsed = ([q for i in layer if gates[i].kind not in UNPULSED for q in gates[i].qubits]
                  for layer in reference)
        assert _pulsed_layers(gates, layers) == [sorted(qs) for qs in pulsed if qs]


@dataclass
class _ReferenceSim:
    """``scheduler._Sim`` and its crossing, pulse and readout helpers as they
    were before the one-pass step loop."""

    config: MachineConfig
    layout: AtomLayout
    clock: float = 0.0
    events: list = field(default_factory=list)
    zone_since: dict = field(default_factory=dict)
    t_in: dict = field(default_factory=dict)
    t_out: dict = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)

    def emit(self, kind, qubits, start, dur):
        self.events.append(Event(kind, tuple(qubits), start, dur))

    def settle_zones(self, qubits, new_zone, at):
        for q in qubits:
            site = self.layout.qubits[q]
            bucket = self.t_in if site.zone is Zone.STORAGE else self.t_out
            bucket[q] += at - self.zone_since.get(q, 0.0)
            site.zone = new_zone
            self.zone_since[q] = at

    def transfer_batch(self, qubits):
        if not qubits:
            return 0.0
        for q in qubits:
            s = self.layout.qubits[q]
            s.trap = Trap.AOD if s.trap is Trap.SLM else Trap.SLM
            self.transfers[q] = self.transfers.get(q, 0) + 1
        self.emit(EventKind.TRAP_TRANSFER, qubits, self.clock, self.config.trap_transfer_time_us)
        return self.config.trap_transfer_time_us

    def pulse_layers(self, gates, layers, two_q):
        kind, dur = ((EventKind.PULSE_2Q, self.config.pulse_2q_us) if two_q
                     else (EventKind.PULSE_1Q, self.config.pulse_1q_us))
        for qubits in _reference_pulsed_layers(gates, layers):
            self.emit(kind, qubits, self.clock, dur)
            self.clock += dur

    def cross(self, qubits, dest, handover=()):
        sites = self.layout.qubits
        pickups = [q for q in qubits if sites[q].trap is Trap.SLM]
        window = self.transfer_batch(sorted([*handover, *pickups]) if handover else pickups)
        if not qubits:
            self.clock += window
            return
        travel = crossing_time_us(self.layout, qubits, dest)
        kind = {Zone.ENTANGLING: EventKind.LOAD, Zone.STORAGE: EventKind.STORE,
                Zone.READOUT: EventKind.READOUT_MOVE}[dest]
        self.emit(kind, qubits, self.clock, travel)
        self.clock += max(window, travel)
        self.settle_zones(qubits, dest, self.clock)

    def readout(self, qubits):
        self.emit(EventKind.READOUT_IMAGE, qubits, self.clock, self.config.readout_time_us)
        self.clock += self.config.readout_time_us


def _reference_pulsed_layers(gates, layers):
    for layer in layers:
        qubits = [q for i in layer if gates[i].kind not in UNPULSED for q in gates[i].qubits]
        if qubits:
            yield sorted(qubits)


def _reference_schedule(program, layout, config):
    """``schedule`` before each step was scheduled in one pass: a chain of
    helpers, each re-walking the step, with every qubit's gate count taken
    to pick the movers and the layers always from ``layer_indices``."""
    n = program.num_qubits
    layout = AtomLayout(layout.config, [replace(s) for s in layout.qubits])
    sim = _ReferenceSim(config, layout, t_in=dict.fromkeys(range(n), 0.0),
                        t_out=dict.fromkeys(range(n), 0.0))
    prep = ec_prep_event(config, n)
    sim.events.append(prep)
    sim.clock = prep.end_us
    sites = layout.qubits
    if config.policy is Policy.TYPE3:
        for site in sites[:n]:
            site.zone = Zone.ENTANGLING
        for step in program.steps:
            if step.zone is Zone.READOUT:
                sim.readout(sorted({q for g in step.gates for q in g.qubits}))
            else:
                sim.pulse_layers(step.gates, layer_indices(step.gates),
                                 step.zone is Zone.ENTANGLING)
    else:
        type2 = config.policy is Policy.TYPE2
        if program.x_basis and not type2:
            first_zone = {}
            for step in program.steps:
                for g in step.gates:
                    for q in g.qubits:
                        first_zone.setdefault(q, step.zone)
            for q, zone in first_zone.items():
                if zone is Zone.ENTANGLING:
                    sites[q].zone = Zone.ENTANGLING
        program_qubits = sorted({q for s in program.steps for g in s.gates for q in g.qubits})
        loaded = False
        for step in program.steps:
            gates = step.gates
            used = sorted({q for g in gates for q in g.qubits})
            layers = layer_indices(gates)
            if step.zone is Zone.READOUT:
                sim.cross(used, Zone.READOUT)
                sim.readout(used)
            elif step.zone is Zone.STORAGE and loaded:
                hop = isolation_hop_us(config)
                for qubits in _reference_pulsed_layers(gates, layers):
                    sim.clock += sim.transfer_batch(
                        [q for q in qubits if sites[q].trap is Trap.SLM])
                    for kind, dur in ((EventKind.SHUTTLE, hop),
                                      (EventKind.PULSE_1Q, config.pulse_1q_us),
                                      (EventKind.SHUTTLE, hop)):
                        sim.emit(kind, qubits, sim.clock, dur)
                        sim.clock += dur
            elif step.zone is Zone.STORAGE:
                sim.cross([q for q in used if sites[q].zone is Zone.ENTANGLING], Zone.STORAGE)
                sim.pulse_layers(gates, layers, False)
            else:
                count = {}
                for g in gates:
                    for q in g.qubits:
                        count[q] = count.get(q, 0) + 1
                movers = []
                for a, b in (g.qubits for g in gates):
                    aod_a, aod_b = sites[a].trap is Trap.AOD, sites[b].trap is Trap.AOD
                    if count[a] != count[b]:
                        movers.append(a if count[a] > count[b] else b)
                    elif aod_a == aod_b:
                        movers.append(min(a, b))
                    else:
                        movers.append(a if aod_a else b)
                arriving = [q for q in used if sites[q].zone is Zone.STORAGE]
                resident = [q for q in used if sites[q].zone is not Zone.STORAGE]
                incoming = ([q for q in program_qubits if sites[q].zone is Zone.STORAGE]
                            if type2 else arriving)

                def handover(candidates):
                    return [q for q in candidates
                            if (sites[q].trap is Trap.AOD) is (q not in movers)]

                sim.cross(incoming, Zone.ENTANGLING, handover(resident))
                sim.clock += sim.transfer_batch(handover(arriving))
                for layer in layers:
                    pairs = [(movers[i], sum(gates[i].qubits) - movers[i]) for i in layer]
                    worst = land_movers(layout, pairs)
                    if worst > 0.0:
                        sim.emit(EventKind.SHUTTLE, sorted(movers[i] for i in layer),
                                 sim.clock, worst)
                        sim.clock += worst
                    qubits = sorted(q for i in layer for q in gates[i].qubits)
                    sim.emit(EventKind.PULSE_2Q, qubits, sim.clock, config.pulse_2q_us)
                    sim.clock += config.pulse_2q_us
                loaded = type2
    for q in range(n):
        sim.settle_zones((q,), sites[q].zone, sim.clock)
    measured = tuple(sorted({g.qubits[0] for step in program.steps
                             if step.zone is Zone.READOUT for g in step.gates}))
    return Timeline(n, tuple(sim.events), sim.clock, sim.t_in, sim.t_out,
                    dict(sorted(sim.transfers.items())), measured)


_STEP_GATE_KINDS = {Zone.STORAGE: _STEP_KINDS[1], Zone.ENTANGLING: _STEP_KINDS[2],
                    Zone.READOUT: (GateKind.MEASURE,)}


@st.composite
def zone_step_programs(draw):
    """Zone-step programs on up to 8 qubits: one-gate and many-gate steps,
    steps in which qubits repeat, a few empty steps, and readout steps
    anywhere. Readout is terminal, so a later step that is not a readout
    step draws only unmeasured qubits."""
    n = draw(st.integers(2, 8))
    steps = []
    measured = set()
    for zone in draw(st.lists(st.sampled_from(list(Zone)), max_size=12)):
        if steps and steps[-1].zone is zone:
            continue
        arity = 2 if zone is Zone.ENTANGLING else 1
        free = range(n) if zone is Zone.READOUT else [q for q in range(n) if q not in measured]
        if len(free) < arity or draw(st.integers(0, 9)) == 0:
            operands = []
        elif draw(st.booleans()):
            operands = [tuple(draw(st.permutations(free))[:arity])]
        elif draw(st.booleans()) or zone is Zone.READOUT:
            pool = draw(st.permutations(free))
            k = draw(st.integers(1, len(free) // arity))
            operands = [tuple(pool[arity * i: arity * (i + 1)]) for i in range(k)]
        else:
            operands = [tuple(draw(st.permutations(free))[:arity])
                        for _ in range(draw(st.integers(2, 10)))]
        gates = []
        for qubits in operands:
            kind = draw(st.sampled_from(_STEP_GATE_KINDS[zone]))
            gates.append(Gate(kind, qubits, (0.5,) * NUM_PARAMS[kind]))
        steps.append(ZoneStep(zone, tuple(gates)))
        if zone is Zone.READOUT:
            measured.update(q for (q,) in operands)
    return ZoneStepProgram(n, tuple(steps), x_basis=draw(st.booleans()))


@given(zone_step_programs(), st.sampled_from(list(Policy)))
@settings(max_examples=400, deadline=None)
def test_schedule_matches_reference(program, policy):
    cfg = replace(MachineConfig(), policy=policy)
    layout = build_layout(cfg, program.num_qubits)
    assert schedule(program, layout, cfg) == _reference_schedule(program, layout, cfg)


@given(zone_step_programs(), st.sampled_from(list(Policy)))
@settings(max_examples=100, deadline=None)
def test_events_name_only_program_qubits(program, policy):
    # The layout holds more sites than the program has qubits.
    cfg = replace(MachineConfig(), policy=policy)
    timeline = schedule(program, build_layout(cfg, program.num_qubits + 2), cfg)
    assert all(q < program.num_qubits for e in timeline.events for q in e.qubits)


@given(zone_step_programs(), st.sampled_from(list(Policy)))
@settings(max_examples=200, deadline=None)
def test_events_over_equal_operands_share_one_tuple(program, policy):
    cfg = replace(MachineConfig(), policy=policy)
    timeline = schedule(program, build_layout(cfg, program.num_qubits), cfg)
    first: dict = {}
    assert all(first.setdefault(e.qubits, e.qubits) is e.qubits for e in timeline.events)


@given(zone_step_programs(), st.sampled_from(list(Policy)))
@settings(max_examples=100, deadline=None)
def test_count_ld_st_matches_per_event_loop(program, policy):
    cfg = replace(MachineConfig(), policy=policy)
    timeline = schedule(program, build_layout(cfg, program.num_qubits), cfg)
    loads = stores = 0
    for e in timeline.events:
        loads += e.kind is EventKind.LOAD
        stores += e.kind is EventKind.STORE
    assert count_ld_st(timeline) == (loads, stores)


def test_timeline_retains_under_48_bytes_per_event():
    # A tuple and two floats per event retained 117 bytes; four column
    # slots retain about 35.
    cfg = MachineConfig()
    source = parse_benchmark("ucc:20:200").materialize()
    program = mantra_pipeline(source, PipelineOptions(mode="standard"))
    layout = build_layout(cfg, program.num_qubits)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        timeline = schedule(program, layout, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(timeline.events) > 30000
    assert retained / len(timeline.events) <= 48


class TestPolicies:
    def test_type2_no_ld_after_initial(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, _ = compile_and_schedule(src, mode="standard", policy=Policy.TYPE2)
        loads, stores = count_ld_st(tl)
        assert loads == 1 and stores == 0

    def test_type2_isolation_shuttles_present(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, _ = compile_and_schedule(src, mode="standard", policy=Policy.TYPE2)
        assert any(e.kind is EventKind.SHUTTLE for e in tl.events)

    def test_type3_zero_movement(self):
        src = parse_benchmark("ucc:6:5", seed=3).materialize()
        tl, _ = compile_and_schedule(src, mode="standard", policy=Policy.TYPE3)
        moving = (EventKind.LOAD, EventKind.STORE, EventKind.SHUTTLE,
                  EventKind.READOUT_MOVE, EventKind.TRAP_TRANSFER)
        assert not any(e.kind in moving for e in tl.events)

    def test_type3_all_time_out_of_storage(self):
        src = parse_benchmark("ghz:5:path", seed=0).materialize()
        tl, _ = compile_and_schedule(src, mode="standard", policy=Policy.TYPE3)
        assert all(v == 0.0 for v in tl.t_in_us.values())


class TestEcPrep:
    def test_duration_workload_independent(self):
        cfg = MachineConfig()
        e1 = ec_prep_event(cfg, 5)
        e2 = ec_prep_event(cfg, 100)
        assert e1.duration_us == e2.duration_us

    def test_type3_skips_ancilla_travel(self):
        from dataclasses import replace

        cfg = MachineConfig()
        cfg3 = replace(cfg, policy=Policy.TYPE3)
        e1 = ec_prep_event(cfg, 5)
        e3 = ec_prep_event(cfg3, 5)
        assert e1.duration_us > e3.duration_us

    def test_prefix_present_in_schedule(self):
        tl, _ = compile_and_schedule(gen_ghz(4))
        assert tl.events[0].kind is EventKind.EC_PREP
        assert tl.events[0].start_us == 0.0

    def test_prep_duration_positive(self):
        assert steane_prep_duration_us(MachineConfig()) > 0.0

    def test_prep_pattern_derived_from_circuit(self):
        # Per dependency layer of the lowered Steane prep circuit: whether it
        # holds a 2Q gate, and whether it holds a pulsed 1Q gate.
        F, T = False, True
        assert _STEANE_PREP_LAYERS == ((F, T), (T, F), (T, F), (T, F), (T, T), (T, T), (F, T))

    @pytest.mark.parametrize("pulse_1q, pulse_2q", [(0.625, 0.380), (0.37, 0.113)])
    def test_prep_duration_sums_layers_in_order(self, pulse_1q, pulse_2q):
        # Bit for bit the sum in layer order, 2Q before 1Q within a layer.
        cfg = replace(MachineConfig(), pulse_1q_us=pulse_1q, pulse_2q_us=pulse_2q)
        total = 0.0
        for dur in (pulse_1q, pulse_2q, pulse_2q, pulse_2q, pulse_2q, pulse_1q,
                    pulse_2q, pulse_1q, pulse_1q):
            total += dur
        assert steane_prep_duration_us(cfg) == total


class TestRelabelledSwap:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_ld_st_and_faster_than_gate_based(self, mode):
        # A SWAP is a relabelling in both modes: no atom leaves storage for
        # it, so it beats the 3-CX lowering and its 6 loads and stores.
        swap, _ = compile_and_schedule(Circuit(4, (Gate(GateKind.SWAP, (0, 1)),)), mode=mode)
        ref, _ = compile_and_schedule(gate_based_swap_reference(4, 0, 1), mode="standard")
        assert sum(count_ld_st(swap)) == 0 and sum(count_ld_st(ref)) == 6
        assert swap.makespan_us < ref.makespan_us


class TestStepShuttlesWhatItHandedOver:
    def test_step_shuttles_only_its_handed_over_movers(self):
        # In the last entangling step every operand ties on the gate count.
        # The movers are picked once: the step hands {0, 1, 2} to the AOD and
        # then shuttles 1 and, together, 0 and 2. Picking again after the
        # hand-over would break CZ(2, 1)'s tie to the lower index and leave
        # the handed-over qubit 2 in place.
        cz = lambda a, b: Gate(GateKind.CZ, (a, b))
        h = lambda q: Gate(GateKind.H, (q,))
        c = Circuit(4, (cz(2, 3), h(1), cz(1, 3), cz(2, 0), cz(0, 3), h(3),
                        cz(2, 1), cz(2, 0), h(3)))
        tl, _ = compile_and_schedule(c)
        moves = [(e.kind, e.qubits) for e in tl.events
                 if e.kind in (EventKind.TRAP_TRANSFER, EventKind.SHUTTLE)]
        assert moves == [
            (EventKind.TRAP_TRANSFER, (0, 2, 3)),
            (EventKind.TRAP_TRANSFER, (0, 3)),
            (EventKind.SHUTTLE, (2,)),
            (EventKind.SHUTTLE, (2,)),
            (EventKind.TRAP_TRANSFER, (0, 1)),
            (EventKind.SHUTTLE, (1,)),
            (EventKind.SHUTTLE, (0, 2)),
        ]
        assert tl.makespan_us == pytest.approx(1593.957, abs=1e-3)


class TestEventRecord:
    def test_positional_immutable_value_record(self):
        e = Event(EventKind.LOAD, (0, 2), 1.5, 2.25)
        assert (e.kind, e.qubits, e.start_us, e.duration_us) == (
            EventKind.LOAD, (0, 2), 1.5, 2.25)
        assert e.end_us == e.start_us + e.duration_us
        twin = Event(EventKind.LOAD, (0, 2), 1.5, 2.25)
        assert e == twin and hash(e) == hash(twin)
        assert e != Event(EventKind.STORE, (0, 2), 1.5, 2.25)
        for name in ("kind", "qubits", "start_us", "duration_us"):
            with pytest.raises(AttributeError):
                setattr(e, name, None)



# Every finite and infinite double: -0.0, subnormals and infinities come up.
_times = st.floats(allow_nan=False)
_event_lists = st.lists(
    st.builds(Event, st.sampled_from(list(EventKind)),
              st.lists(st.integers(0, 7), max_size=3).map(tuple), _times, _times),
    max_size=12,
)
_EDGE = [Event(EventKind.LOAD, (0,), -0.0, 5e-324),
         Event(EventKind.STORE, (1, 2), 2.2250738585072014e-308 / 3, -0.0),
         Event(EventKind.SHUTTLE, (), float("inf"), 0.0)]


class TestEventLog:
    @given(_event_lists, _event_lists, st.integers(-14, 14), st.integers(-14, 14))
    @settings(max_examples=300, deadline=None)
    @example(_EDGE, [e._replace(start_us=0.0) for e in _EDGE], -3, 2)
    def test_reads_as_the_tuple_it_was_built_from(self, events, other, i, j):
        events, other = tuple(events), tuple(other)
        log = EventLog(events)
        assert len(log) == len(events)
        assert all(type(e) is Event for e in log)
        assert list(log) == list(events)
        for k in range(-len(events), len(events)):
            assert log[k] == events[k]
        for k in (len(events), -len(events) - 1):
            with pytest.raises(IndexError):
                log[k]
        assert log[i:j] == events[i:j] and log[::-1] == events[::-1]
        assert log == events and events == log and not log != events
        assert (log == other) == (events == other) == (log == EventLog(other))
        assert log != list(events)  # as a tuple differs from a list
        for field_ in ("start_us", "duration_us"):
            assert ([float.hex(getattr(e, field_)) for e in log]
                    == [float.hex(getattr(e, field_)) for e in events])

    @given(_event_lists)
    @settings(max_examples=50, deadline=None)
    def test_timeline_turns_events_into_a_log(self, events):
        for given_events in (tuple(events), events):
            timeline = Timeline(8, given_events, 0.0, {}, {}, {}, ())
            assert type(timeline.events) is EventLog
            assert timeline.events == tuple(events)

    def test_unhashable_and_read_only(self):
        log = EventLog(_EDGE)
        with pytest.raises(TypeError):
            hash(log)
        with pytest.raises(TypeError):
            log[0] = _EDGE[1]
