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

Each zone step is scheduled in one pass: its qubits and dependency layers
come from one walk over its gates (``_step_layers``), and a step in which
no qubit repeats is one layer, found without layering. Every event is
recorded by ``_Sim.emit`` into one ``EventLog``, which keeps the events as
columns, and events over equal qubits share one operand tuple.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .arch import (
    AOD,
    SLM,
    TYPE2,
    TYPE3,
    AtomLayout,
    LayoutError,
    LogicalSite,
    MachineConfig,
    crossing_time_us,
    isolation_hop_us,
    land_movers,
)
from .frontend import gen_steane_prep
from .ir import ENTANGLING, READOUT, STORAGE, UNPULSED, Zone, layer_indices, paused_gc
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


(LOAD, STORE, TRAP_TRANSFER, SHUTTLE, PULSE_1Q, PULSE_2Q, READOUT_MOVE, READOUT_IMAGE,
 EC_PREP) = EventKind  # every member under its own name (see ``ir.Zone``)


class Event(NamedTuple):
    kind: EventKind
    qubits: tuple[int, ...]
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class EventLog(Sequence):
    """A read-only sequence of ``Event``s, held as four parallel columns:
    ``kinds`` and ``qubits`` are lists, ``starts`` and ``durations`` arrays
    of doubles, so an event costs four slots rather than a tuple and two
    floats. Iteration and indexing build each ``Event`` as it is read, and a
    log equals another log, or a tuple, holding equal events. Code that
    reads one field of every event reads its column."""

    __slots__ = ("kinds", "qubits", "starts", "durations")
    __hash__ = None

    def __init__(self, events=()):
        self.kinds, self.qubits = [], []
        self.starts, self.durations = array("d"), array("d")
        for kind, qubits, start, dur in events:
            self.kinds.append(kind)
            self.qubits.append(qubits)
            self.starts.append(start)
            self.durations.append(dur)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = EventLog()
            part.kinds, part.qubits = self.kinds[i], self.qubits[i]
            part.starts, part.durations = self.starts[i], self.durations[i]
            return part
        return tuple.__new__(Event, (self.kinds[i], self.qubits[i], self.starts[i],
                                     self.durations[i]))

    def __iter__(self):
        return map(tuple.__new__, repeat(Event),
                   zip(self.kinds, self.qubits, self.starts, self.durations))

    def __eq__(self, other):
        if isinstance(other, EventLog):
            return (self.kinds == other.kinds and self.qubits == other.qubits
                    and self.starts == other.starts and self.durations == other.durations)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog({list(self)!r})"


@dataclass
class Timeline:
    num_qubits: int
    events: EventLog  # any other sequence of events is turned into one
    makespan_us: float
    t_in_us: dict  # qubit -> time spent in the storage zone
    t_out_us: dict  # qubit -> time spent outside it
    transfers: dict  # qubit -> trap-transfer count
    measured: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.events, EventLog):
            self.events = EventLog(self.events)

    def to_lines(self) -> str:
        log = self.events
        lines = []
        for kind, qubits, start, dur in zip(log.kinds, log.qubits, log.starts, log.durations):
            qs = ",".join(str(q) for q in qubits)
            lines.append(f"{kind.value} [{qs}] start={start:.3f} dur={dur:.3f}")
        lines.append(f"MAKESPAN {self.makespan_us:.3f}")
        return "\n".join(lines) + "\n"


def count_ld_st(timeline: Timeline) -> tuple[int, int]:
    """(loads, stores) counted per batch event (readout travel excluded)."""
    kinds = timeline.events.kinds
    return kinds.count(LOAD), kinds.count(STORE)


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
    if config.policy is not TYPE3:
        dur += config.min_ld_st_us
    return Event(EC_PREP, tuple(range(n_logical)), 0.0, dur)


@dataclass(slots=True)
class _Sim:
    config: MachineConfig
    layout: AtomLayout
    clock: float = 0.0
    events: EventLog = field(default_factory=EventLog)
    zone_since: dict = field(default_factory=dict)
    t_in: dict = field(default_factory=dict)
    t_out: dict = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)
    operands: dict = field(default_factory=dict)  # each operand tuple emitted, to itself

    def emit(self, kind, qubits, start, dur):
        """Record one event over the sorted ``qubits``: every event of a
        timeline is appended here, a field to each column of ``events``.
        Events over equal operands share one tuple: a timeline repeats few
        distinct operand sets many times."""
        qubits = tuple(qubits)
        log = self.events
        log.kinds.append(kind)
        log.qubits.append(self.operands.setdefault(qubits, qubits))
        log.starts.append(start)
        log.durations.append(dur)

    def transfer_batch(self, qubits):
        """One batched trap-transfer event over the sorted ``qubits``;
        returns its duration so the caller can fold it into the step's
        concurrency window."""
        if not qubits:
            return 0.0
        sites, transfers = self.layout.qubits, self.transfers
        for q in qubits:
            site = sites[q]
            site.trap = AOD if site.trap is SLM else SLM
            transfers[q] = transfers.get(q, 0) + 1
        dur = self.config.trap_transfer_time_us
        self.emit(TRAP_TRANSFER, qubits, self.clock, dur)
        return dur


_ONE_GATE_LAYERS = ((0,),)


def _step_layers(gates):
    """One pass over a zone step's ``gates``, which share one arity: the
    sorted qubits they use, and their dependency layers as positions into
    ``gates``. A step in which no qubit repeats is a single layer."""
    if len(gates) == 1:
        return sorted(gates[0].qubits), _ONE_GATE_LAYERS
    qubits = [q for g in gates for q in g.qubits]
    used = sorted(set(qubits))
    if not gates or len(used) < len(qubits):
        return used, layer_indices(gates)
    return used, (range(len(gates)),)


def _pulsed_layers(gates, layers):
    """Sorted qubits of the pulsed gates in each of ``layers`` (the
    dependency layers of ``gates``); layers holding only unpulsed gates are
    left out."""
    pulsed = []
    for layer in layers:
        # The gates of one layer share no qubit.
        qubits = [q for i in layer if gates[i].kind not in UNPULSED for q in gates[i].qubits]
        if qubits:
            qubits.sort()
            pulsed.append(qubits)
    return pulsed


def _pick_movers(gates, one_layer: bool, sites):
    """The moving operand of each 2Q gate, by position in ``gates``: the one
    with more gates in the step (the fountain's shared qubit rides the AOD);
    ties prefer the qubit already in an AOD trap, then the lower index. In a
    step that is ``one_layer`` every operand has one gate, so every gate
    ties."""
    count: dict[int, int] = {}
    if not one_layer:
        for g in gates:
            a, b = g.qubits
            count[a] = count.get(a, 0) + 1
            count[b] = count.get(b, 0) + 1
    movers = []
    for g in gates:
        a, b = g.qubits
        if count and count[a] != count[b]:
            movers.append(a if count[a] > count[b] else b)
            continue
        aod_a = sites[a].trap is AOD
        if aod_a == (sites[b].trap is AOD):
            movers.append(a if a < b else b)
        else:
            movers.append(a if aod_a else b)
    return movers


@paused_gc
def schedule(
    program: ZoneStepProgram, layout: AtomLayout, config: MachineConfig
) -> Timeline:
    """Deterministic schedule of a zone-step program under the configured
    operation policy, starting from ``layout``'s sites; ``layout`` itself is
    left unchanged. ``layout`` must have been built for ``config``: the
    geometry comes from one and the timings from the other. A config whose
    times overflow a float raises ``ValueError``: the makespan would be
    infinite and the per-zone times NaN."""
    if layout.config != config:
        raise LayoutError("layout was built for another machine config")
    n = program.num_qubits
    if n > len(layout.qubits):
        raise LayoutError(
            f"program uses {n} logical qubits, layout holds {len(layout.qubits)}"
        )
    layout = AtomLayout(layout.config, [LogicalSite(s.zone, s.row, s.col, s.trap)
                                        for s in layout.qubits])
    sim = _Sim(config, layout, t_in=dict.fromkeys(range(n), 0.0),
               t_out=dict.fromkeys(range(n), 0.0))

    sim.emit(*ec_prep_event(config, n))
    sim.clock = sim.events[0].end_us

    if config.policy is TYPE3:
        _schedule_type3(sim, program)
    else:
        _schedule_zoned(sim, program)

    clock, since = sim.clock, sim.zone_since
    if not clock < float("inf"):
        raise ValueError(f"makespan is not finite ({clock} us): the machine config's "
                         "times overflow")
    for q in range(n):  # charge each qubit's time since its last move
        bucket = sim.t_in if layout.qubits[q].zone is STORAGE else sim.t_out
        bucket[q] += clock - since.get(q, 0.0)
    measured = tuple(sorted({g.qubits[0] for step in program.steps
                             if step.zone is READOUT for g in step.gates}))
    return Timeline(
        num_qubits=n,
        events=sim.events,
        makespan_us=clock,
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
        if zone is ENTANGLING:
            sim.layout.qubits[q].zone = ENTANGLING


def _pulse_layers(sim: _Sim, pulsed, two_q: bool):
    """One global 2Q (``two_q``) or 1Q pulse per layer of ``pulsed`` qubits,
    fired on the atoms where they stand."""
    cfg = sim.config
    kind, dur = (PULSE_2Q, cfg.pulse_2q_us) if two_q else (PULSE_1Q, cfg.pulse_1q_us)
    emit, clock = sim.emit, sim.clock
    for qubits in pulsed:
        emit(kind, qubits, clock, dur)
        clock += dur
    sim.clock = clock


def _pulse_in_place_layers(sim: _Sim, pulsed):
    """Type 2's 1Q layers in the entangling zone: targets shuttle clear of
    every other atom (``isolation_hop_us``), pulse, and shuttle back."""
    cfg = sim.config
    sites = sim.layout.qubits
    hop = isolation_hop_us(cfg)
    for qubits in pulsed:
        sim.clock += sim.transfer_batch([q for q in qubits if sites[q].trap is SLM])
        sim.emit(SHUTTLE, qubits, sim.clock, hop)
        sim.clock += hop
        sim.emit(PULSE_1Q, qubits, sim.clock, cfg.pulse_1q_us)
        sim.clock += cfg.pulse_1q_us
        sim.emit(SHUTTLE, qubits, sim.clock, hop)
        sim.clock += hop


def _entangling_gates(sim: _Sim, gates, movers, layers):
    """Per dependency layer, shuttle the ``movers`` (one per gate, by
    position) onto their partners in one ``land_movers`` call, then fire one
    2Q pulse."""
    dur = sim.config.pulse_2q_us
    emit, layout, clock = sim.emit, sim.layout, sim.clock
    for layer in layers:
        pairs, layer_movers, qubits = [], [], []  # the gates of one layer share no qubit
        for i in layer:
            a, b = gates[i].qubits
            m = movers[i]
            pairs.append((m, b if m == a else a))
            layer_movers.append(m)
            qubits += (a, b)
        worst = land_movers(layout, pairs)
        if worst > 0.0:
            layer_movers.sort()
            emit(SHUTTLE, layer_movers, clock, worst)
            clock += worst
        qubits.sort()
        emit(PULSE_2Q, qubits, clock, dur)
        clock += dur
    sim.clock = clock


# The travel event of a crossing, by destination zone.
_CROSSING = {ENTANGLING: LOAD, STORAGE: STORE, READOUT: READOUT_MOVE}


def _cross(sim: _Sim, qubits, dest: Zone, handover=()):
    """Carry the sorted ``qubits`` across the zone gaps to ``dest``. One
    trap-transfer batch over ``handover`` and the qubits the AOD picks up
    from SLM traps overlaps one LOAD, STORE or READOUT_MOVE batch (by
    ``dest``) lasting the slowest member's travel; the clock advances by the
    longer of the two."""
    layout = sim.layout
    sites = layout.qubits
    pickups = [q for q in qubits if sites[q].trap is SLM]
    window = sim.transfer_batch(sorted([*handover, *pickups]) if handover else pickups)
    if not qubits:
        sim.clock += window
        return
    travel = crossing_time_us(layout, qubits, dest)
    sim.emit(_CROSSING[dest], qubits, sim.clock, travel)
    at = sim.clock = sim.clock + max(window, travel)
    # Charge each member's time since its last move to the zone it leaves.
    since, t_in, t_out = sim.zone_since, sim.t_in, sim.t_out
    for q in qubits:
        site = sites[q]
        (t_in if site.zone is STORAGE else t_out)[q] += at - since.get(q, 0.0)
        site.zone = dest
        since[q] = at


def _schedule_zoned(sim: _Sim, program: ZoneStepProgram):
    """Type 1 and type 2. Type 2 permits local Raman in the entangling zone:
    it skips the x-basis preplacement, its first entangling step loads every
    qubit the program uses, and from then on its 1Q layers run in place."""
    type2 = sim.config.policy is TYPE2
    if type2:
        program_qubits = sorted({q for s in program.steps for g in s.gates for q in g.qubits})
    else:
        _preplace(sim, program)
    sites = sim.layout.qubits
    loaded = False  # type 2's one load has happened
    for step in program.steps:
        gates = step.gates
        used, layers = _step_layers(gates)
        if step.zone is READOUT:
            _cross(sim, used, READOUT)
            _schedule_readout(sim, used)
        elif step.zone is STORAGE and loaded:
            _pulse_in_place_layers(sim, _pulsed_layers(gates, layers))
        elif step.zone is STORAGE:
            _cross(sim, [q for q in used if sites[q].zone is ENTANGLING], STORAGE)
            _pulse_layers(sim, _pulsed_layers(gates, layers), False)
        else:
            movers = _pick_movers(gates, len(layers) == 1, sites)
            mover_set = set(movers)
            # Residents whose trap is wrong for their role hand over: movers
            # ride the AOD, every other qubit sits in an SLM trap.
            arriving, handover = [], []
            for q in used:
                site = sites[q]
                if site.zone is STORAGE:
                    arriving.append(q)
                elif (site.trap is AOD) is (q not in mover_set):
                    handover.append(q)
            incoming = ([q for q in program_qubits if sites[q].zone is STORAGE]
                        if type2 else arriving)
            # Residents hand over and incoming qubits are picked up by the
            # AOD in one transfer batch, which overlaps the load travel.
            _cross(sim, incoming, ENTANGLING, handover)
            # Freshly arrived stationary partners still hand over to SLM.
            sim.clock += sim.transfer_batch(
                [q for q in arriving if (sites[q].trap is AOD) is (q not in mover_set)])
            _entangling_gates(sim, gates, movers, layers)
            loaded = type2


def _schedule_readout(sim: _Sim, qubits):
    """Image the sorted ``qubits`` where they stand."""
    sim.emit(READOUT_IMAGE, qubits, sim.clock, sim.config.readout_time_us)
    sim.clock += sim.config.readout_time_us


def _schedule_type3(sim: _Sim, program: ZoneStepProgram):
    """Non-zoned in-place execution: every step pulses its layers where the
    atoms stand, and all time decoheres at the fast rate."""
    for site in sim.layout.qubits[: program.num_qubits]:
        site.zone = ENTANGLING
    for step in program.steps:
        used, layers = _step_layers(step.gates)
        if step.zone is READOUT:
            _schedule_readout(sim, used)
        else:
            _pulse_layers(sim, _pulsed_layers(step.gates, layers), step.zone is ENTANGLING)
