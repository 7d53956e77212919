"""Maps a zone-step program onto the machine model: load/store batches, trap
transfers, in-zone shuttling, readout travel, and error-correction prep,
producing a deterministic event timeline.

Type 1 and type 2 share one zoned step loop; type 3 runs unzoned in place.
Every zone crossing follows one rule (``_cross``): one trap-transfer batch
overlaps one LOAD, STORE or READOUT_MOVE batch event whose duration is the
longest member travel time, and the clock waits for the longer of the two,
so only a transfer's exposed remainder shows up in the breakdown. The
moving operand of each 2Q gate is picked once per entangling step; the trap
hand-over and the shuttles both follow that pick. Every travel event
advances the clock past its own end before the next one starts, so travel
events never overlap. ``schedule`` moves a copy of the layout's sites, so
its caller's layout is never changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .arch import (
    AtomLayout,
    MachineConfig,
    Policy,
    Trap,
    isolation_hop_um,
    land_movers,
    max_crossing_distance_um,
)
from .frontend import gen_steane_prep
from .ir import UNPULSED, Gate, Zone, layer_indices
from .rewrite import ZoneStepProgram, cancel_hadamard_pairs, lower_cx_to_cz


class EventKind(Enum):
    LOAD = "LOAD"
    STORE = "STORE"
    TRAP_TRANSFER = "TRAP_TRANSFER"
    SHUTTLE = "SHUTTLE"
    PULSE_1Q = "PULSE_1Q"
    PULSE_2Q = "PULSE_2Q"
    READOUT_MOVE = "READOUT_MOVE"
    READOUT_IMAGE = "READOUT_IMAGE"
    EC_PREP = "EC_PREP"

    __hash__ = object.__hash__  # as for ir.Zone


class Event(NamedTuple):
    kind: EventKind
    qubits: tuple[int, ...]
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass
class Timeline:
    num_qubits: int
    events: tuple[Event, ...]
    makespan_us: float
    t_in_us: dict  # qubit -> time spent in the storage zone
    t_out_us: dict  # qubit -> time spent outside it
    transfers: dict  # qubit -> trap-transfer count
    measured: tuple[int, ...]

    def to_lines(self) -> str:
        lines = []
        for e in self.events:
            qs = ",".join(str(q) for q in e.qubits)
            lines.append(f"{e.kind.value} [{qs}] start={e.start_us:.3f} dur={e.duration_us:.3f}")
        lines.append(f"MAKESPAN {self.makespan_us:.3f}")
        return "\n".join(lines) + "\n"


def count_ld_st(timeline: Timeline) -> tuple[int, int]:
    """(loads, stores) counted per batch event (readout travel excluded)."""
    load, store = EventKind.LOAD, EventKind.STORE
    loads = stores = 0
    for e in timeline.events:
        kind = e.kind
        if kind is load:
            loads += 1
        elif kind is store:
            stores += 1
    return loads, stores


class ScheduleError(RuntimeError):
    pass


def _pulse_pattern(gates) -> tuple[tuple[bool, bool], ...]:
    """Per dependency layer of ``gates``: whether it holds a 2Q gate and
    whether it holds a pulsed 1Q gate."""
    arities = ({len(gates[i].qubits) for i in layer if gates[i].kind not in UNPULSED}
               for layer in layer_indices(gates))
    return tuple((2 in a, 1 in a) for a in arities)


# The Steane |+>_L preparation circuit, its CXs lowered as a program's are.
_STEANE_PREP_LAYERS = _pulse_pattern(
    cancel_hadamard_pairs(lower_cx_to_cz(gen_steane_prep())).gates
)


def steane_prep_duration_us(config: MachineConfig) -> float:
    """Pulse time of the Steane |+>_L preparation circuit, layer by layer."""
    total = 0.0
    for has_2q, has_1q in _STEANE_PREP_LAYERS:
        if has_2q:
            total += config.pulse_2q_us
        if has_1q:
            total += config.pulse_1q_us
    return total


def ec_prep_event(config: MachineConfig, n_logical: int) -> Event:
    """Fixed per-run logical-qubit preparation prefix: Steane prep pulses,
    one transversal entangling layer, and (except under Type 3) the ancilla
    travel to the storage zone. Fully parallel across logical qubits."""
    dur = steane_prep_duration_us(config) + config.pulse_2q_us
    if config.policy is not Policy.TYPE3:
        dur += config.min_ld_st_us
    return Event(EventKind.EC_PREP, tuple(range(n_logical)), 0.0, dur)


@dataclass
class _Sim:
    config: MachineConfig
    layout: AtomLayout
    clock: float = 0.0
    events: list = field(default_factory=list)
    zone_since: dict = field(default_factory=dict)
    t_in: dict = field(default_factory=dict)
    t_out: dict = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)

    def emit(self, kind, qubits, start, dur):
        """``qubits`` must be sorted."""
        self.events.append(Event(kind, tuple(qubits), start, dur))

    def settle_zones(self, qubits, new_zone, at):
        """Charge each qubit's time since its last move to its old zone's
        bucket, then place it in ``new_zone`` as of ``at``."""
        sites, since = self.layout.qubits, self.zone_since
        t_in, t_out, storage = self.t_in, self.t_out, Zone.STORAGE
        for q in qubits:
            site = sites[q]
            bucket = t_in if site.zone is storage else t_out
            bucket[q] += at - since.get(q, 0.0)
            site.zone = new_zone
            since[q] = at

    def transfer_batch(self, qubits):
        """One batched trap-transfer event over the sorted ``qubits``;
        returns its duration so the caller can fold it into the step's
        concurrency window."""
        if not qubits:
            return 0.0
        sites = self.layout.qubits
        for q in qubits:
            s = sites[q]
            s.trap = Trap.AOD if s.trap is Trap.SLM else Trap.SLM
            self.transfers[q] = self.transfers.get(q, 0) + 1
        self.emit(
            EventKind.TRAP_TRANSFER, qubits, self.clock, self.config.trap_transfer_time_us
        )
        return self.config.trap_transfer_time_us


def _pick_movers(gates: tuple[Gate, ...], layout: AtomLayout):
    """The moving operand of each 2Q gate, by position in ``gates``: the one
    with more gates in the step (the fountain's shared qubit rides the AOD);
    ties prefer the qubit already in an AOD trap, then the lower index.
    Returns the movers, the step's sorted qubits and its dependency layers."""
    count: dict[int, int] = {}
    for g in gates:
        a, b = g.qubits
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    sites = layout.qubits
    movers = []
    for g in gates:
        a, b = g.qubits
        ca, cb = count[a], count[b]
        if ca != cb:
            movers.append(a if ca > cb else b)
            continue
        aod_a = sites[a].trap is Trap.AOD
        if aod_a == (sites[b].trap is Trap.AOD):
            movers.append(a if a < b else b)
        else:
            movers.append(a if aod_a else b)
    used = sorted(count)
    return movers, used, _step_layers(gates, len(used))


def _step_layers(gates, n_qubits):
    """The dependency layers of one step's ``gates``, which share one arity
    and act on ``n_qubits`` distinct qubits: a single layer when no qubit
    repeats, else ``layer_indices``."""
    if gates and n_qubits == len(gates) * len(gates[0].qubits):
        return (range(len(gates)),)
    return layer_indices(gates)


def _handover(sim: _Sim, movers, candidates):
    """The candidates whose trap is wrong for their role: movers ride the
    AOD, every other qubit sits in an SLM trap."""
    sites = sim.layout.qubits
    return [
        q for q in candidates
        if (sites[q].trap is Trap.AOD) is (q not in movers)
    ]


def _pulsed_layers(gates, layers):
    """Sorted qubits of the pulsed gates in each of ``layers`` (the
    dependency layers of ``gates``); layers holding only unpulsed gates are
    skipped."""
    for layer in layers:
        # The gates of one layer share no qubit.
        qubits = [q for i in layer if gates[i].kind not in UNPULSED
                  for q in gates[i].qubits]
        if qubits:
            qubits.sort()
            yield qubits


def schedule(
    program: ZoneStepProgram, layout: AtomLayout, config: MachineConfig
) -> Timeline:
    """Deterministic schedule of a zone-step program under the configured
    operation policy, starting from ``layout``'s sites; ``layout`` itself is
    left unchanged. ``layout`` must have been built for ``config``: the
    geometry comes from one and the timings from the other."""
    if layout.config != config:
        raise ScheduleError("layout was built for another machine config")
    n = program.num_qubits
    if n > len(layout.qubits):
        raise ScheduleError(
            f"program uses {n} logical qubits, layout holds {len(layout.qubits)}"
        )
    layout = AtomLayout(layout.config, [replace(s) for s in layout.qubits])
    sim = _Sim(config, layout, t_in=dict.fromkeys(range(n), 0.0),
               t_out=dict.fromkeys(range(n), 0.0))

    prep = ec_prep_event(config, n)
    sim.events.append(prep)
    sim.clock = prep.end_us

    if config.policy is Policy.TYPE3:
        _schedule_type3(sim, program)
    else:
        _schedule_zoned(sim, program)

    for q in range(n):  # charge each qubit's time since its last move
        sim.settle_zones((q,), layout.qubits[q].zone, sim.clock)
    measured = tuple(sorted({g.qubits[0] for step in program.steps
                             if step.zone is Zone.READOUT for g in step.gates}))
    return Timeline(
        num_qubits=n,
        events=tuple(sim.events),
        makespan_us=sim.clock,
        t_in_us=sim.t_in,
        t_out_us=sim.t_out,
        transfers=dict(sorted(sim.transfers.items())),
        measured=measured,
    )


def _preplace(sim: _Sim, program: ZoneStepProgram):
    """X-basis programs start with every initial-layer entangling qubit
    already in the entangling zone: with the leading basis change absorbed
    into state preparation there is no storage-zone work before the first CZ
    layer, so the qubits are prepared in place."""
    if not program.x_basis:
        return
    first_zone: dict[int, Zone] = {}
    for step in program.steps:
        for g in step.gates:
            for q in g.qubits:
                first_zone.setdefault(q, step.zone)
    for q, zone in first_zone.items():
        if zone is Zone.ENTANGLING:
            sim.layout.qubits[q].zone = Zone.ENTANGLING


def _pulse_layers(sim: _Sim, gates, layers, two_q):
    """One global 2Q (``two_q``) or 1Q pulse per pulsed layer, fired on the
    atoms where they stand."""
    cfg = sim.config
    kind, dur = ((EventKind.PULSE_2Q, cfg.pulse_2q_us) if two_q
                 else (EventKind.PULSE_1Q, cfg.pulse_1q_us))
    for qubits in _pulsed_layers(gates, layers):
        sim.emit(kind, qubits, sim.clock, dur)
        sim.clock += dur


def _pulse_in_place_layers(sim: _Sim, gates, layers):
    """Type 2's 1Q layers in the entangling zone: targets shuttle >12 um
    clear of every other atom, pulse, and shuttle back."""
    cfg = sim.config
    sites = sim.layout.qubits
    hop = isolation_hop_um(cfg) / cfg.aod_speed_um_per_us
    for qubits in _pulsed_layers(gates, layers):
        sim.clock += sim.transfer_batch([q for q in qubits if sites[q].trap is Trap.SLM])
        sim.emit(EventKind.SHUTTLE, qubits, sim.clock, hop)
        sim.clock += hop
        sim.emit(EventKind.PULSE_1Q, qubits, sim.clock, cfg.pulse_1q_us)
        sim.clock += cfg.pulse_1q_us
        sim.emit(EventKind.SHUTTLE, qubits, sim.clock, hop)
        sim.clock += hop


def _entangling_gates(sim: _Sim, gates, movers, layers):
    """Per dependency layer, shuttle the ``movers`` (one per gate, by
    position) onto their partners in one ``land_movers`` call, then fire one
    2Q pulse."""
    cfg = sim.config
    for layer in layers:
        pairs, layer_movers, qubits = [], [], []  # the gates of one layer share no qubit
        for i in layer:
            a, b = gates[i].qubits
            m = movers[i]
            pairs.append((m, b if m == a else a))
            layer_movers.append(m)
            qubits += (a, b)
        worst = land_movers(sim.layout, pairs) / cfg.aod_speed_um_per_us
        if worst > 0.0:
            layer_movers.sort()
            sim.emit(EventKind.SHUTTLE, layer_movers, sim.clock, worst)
            sim.clock += worst
        qubits.sort()
        sim.emit(EventKind.PULSE_2Q, qubits, sim.clock, cfg.pulse_2q_us)
        sim.clock += cfg.pulse_2q_us


# The travel event of a crossing, by destination zone.
_CROSSING = {Zone.ENTANGLING: EventKind.LOAD, Zone.STORAGE: EventKind.STORE,
             Zone.READOUT: EventKind.READOUT_MOVE}


def _cross(sim: _Sim, qubits, dest: Zone, handover=()):
    """Carry the sorted ``qubits`` across the zone gaps to ``dest``. One
    trap-transfer batch over ``handover`` and the qubits the AOD picks up
    from SLM traps overlaps one LOAD, STORE or READOUT_MOVE batch (by
    ``dest``) lasting the slowest member's travel; the clock advances by the
    longer of the two. Every zone's slots mirror the storage block grid
    one-to-one, so every qubit keeps its (row, col)."""
    cfg = sim.config
    layout = sim.layout
    sites = layout.qubits
    pickups = [q for q in qubits if sites[q].trap is Trap.SLM]
    window = sim.transfer_batch(sorted([*handover, *pickups]) if handover else pickups)
    if not qubits:
        sim.clock += window
        return
    # Dividing by the positive speed keeps the order, so the slowest
    # member's time is the longest distance's, to the bit.
    travel = max(cfg.min_ld_st_us,
                 max_crossing_distance_um(layout, qubits, dest) / cfg.aod_speed_um_per_us)
    sim.emit(_CROSSING[dest], qubits, sim.clock, travel)
    sim.clock += max(window, travel)
    sim.settle_zones(qubits, dest, sim.clock)


def _schedule_zoned(sim: _Sim, program: ZoneStepProgram):
    """Type 1 and type 2. Type 2 permits local Raman in the entangling zone:
    it skips the x-basis preplacement, its first entangling step loads every
    qubit the program uses, and from then on its 1Q layers run in place."""
    type2 = sim.config.policy is Policy.TYPE2
    if not type2:
        _preplace(sim, program)
    sites = sim.layout.qubits
    program_qubits = sorted({q for s in program.steps for g in s.gates for q in g.qubits})
    loaded = False  # type 2's one load has happened
    for step in program.steps:
        gates = step.gates
        if step.zone is Zone.ENTANGLING:
            movers, used, layers = _pick_movers(gates, sim.layout)
        else:
            used = sorted({q for g in gates for q in g.qubits})
        if step.zone is Zone.READOUT:
            _cross(sim, used, Zone.READOUT)
            _schedule_readout(sim, used)
        elif step.zone is Zone.STORAGE and loaded:
            _pulse_in_place_layers(sim, gates, _step_layers(gates, len(used)))
        elif step.zone is Zone.STORAGE:
            _cross(sim, [q for q in used if sites[q].zone is Zone.ENTANGLING], Zone.STORAGE)
            _pulse_layers(sim, gates, _step_layers(gates, len(used)), False)
        else:
            mover_set = set(movers)
            arriving, resident = [], []
            for q in used:
                (arriving if sites[q].zone is Zone.STORAGE else resident).append(q)
            incoming = ([q for q in program_qubits if sites[q].zone is Zone.STORAGE]
                        if type2 else arriving)
            # Residents hand over and incoming qubits are picked up by the
            # AOD in one transfer batch, which overlaps the load travel.
            _cross(sim, incoming, Zone.ENTANGLING, _handover(sim, mover_set, resident))
            # Freshly arrived stationary partners still hand over to SLM.
            sim.clock += sim.transfer_batch(_handover(sim, mover_set, arriving))
            _entangling_gates(sim, gates, movers, layers)
            loaded = type2


def _schedule_readout(sim: _Sim, qubits):
    """Image the sorted ``qubits`` where they stand."""
    sim.emit(EventKind.READOUT_IMAGE, qubits, sim.clock, sim.config.readout_time_us)
    sim.clock += sim.config.readout_time_us


def _schedule_type3(sim: _Sim, program: ZoneStepProgram):
    """Non-zoned in-place execution: every step pulses its layers where the
    atoms stand, and all time decoheres at the fast rate."""
    for site in sim.layout.qubits[: program.num_qubits]:
        site.zone = Zone.ENTANGLING
    for step in program.steps:
        if step.zone is Zone.READOUT:
            _schedule_readout(sim, sorted({q for g in step.gates for q in g.qubits}))
        else:
            _pulse_layers(sim, step.gates, layer_indices(step.gates),
                          step.zone is Zone.ENTANGLING)
