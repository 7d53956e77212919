"""Reduces a Timeline to an execution-time breakdown and a product-form
fidelity estimate; ``run`` is the whole compile→schedule→cost path.

Breakdown categories: load/store (the travel of every zone crossing, readout
included), trap transfer (exposed remainder only — every zone crossing
overlaps one transfer batch, and time hidden under concurrent travel is not
charged), shuttling, readout imaging, error-correction prep, and gate
execution. Transfer exposure is measured against the merged union of the
travel intervals (load, store, readout travel, error-correction prep), built
once per timeline. Fidelity multiplies per-gate, per-transfer, readout,
decoherence and (non-zoned policy) crosstalk factors per logical qubit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields

from .arch import TYPE3, MachineConfig, build_layout
from .frontend import BenchmarkSpec
from .ir import UNPULSED, Circuit, paused_gc
from .rewrite import PipelineOptions, ZoneStepProgram, mantra_pipeline
from .scheduler import PULSE_1Q, PULSE_2Q, TRAP_TRANSFER, EventKind, Timeline, count_ld_st, schedule

_TRAVEL_KINDS = (
    EventKind.LOAD,
    EventKind.STORE,
    EventKind.READOUT_MOVE,
    EventKind.EC_PREP,
)


@dataclass(frozen=True)
class Breakdown:
    load_store_us: float
    trap_transfer_us: float
    shuttling_us: float
    readout_us: float
    error_correction_us: float
    gate_execution_us: float
    makespan_us: float

    @property
    def categories(self) -> dict:
        return {name: getattr(self, name) for name in CATEGORIES}


# The time categories, in report order: every field but the makespan they
# sum to.
CATEGORIES = tuple(f.name for f in fields(Breakdown) if f.name != "makespan_us")


def _travel_union(log) -> tuple[list[float], list[float]]:
    """Starts and ends of the union of the travel intervals in ``log``, a
    timeline's ``EventLog``, as sorted disjoint pieces. Only overlapping intervals merge; touching ones
    stay apart, so on travel that never overlaps (the scheduler's) every
    piece is one event's interval, and the ends ascend."""
    starts: list[float] = []
    ends: list[float] = []
    travel = sorted((start, start + dur)
                    for kind, start, dur in zip(log.kinds, log.starts, log.durations)
                    if kind in _TRAVEL_KINDS)
    for lo, hi in travel:
        if ends and lo < ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            starts.append(lo)
            ends.append(hi)
    return starts, ends


# Breakdown field each event kind is charged to. A TRAP_TRANSFER is charged
# only its uncovered time.
_CATEGORY = {
    **dict.fromkeys(EventKind, "gate_execution_us"),
    EventKind.LOAD: "load_store_us",
    EventKind.STORE: "load_store_us",
    EventKind.READOUT_MOVE: "load_store_us",
    EventKind.TRAP_TRANSFER: "trap_transfer_us",
    EventKind.SHUTTLE: "shuttling_us",
    EventKind.READOUT_IMAGE: "readout_us",
    EventKind.EC_PREP: "error_correction_us",
}


@paused_gc
def breakdown(timeline: Timeline) -> Breakdown:
    """Each event's time added to its category, in event order."""
    cat = dict.fromkeys(CATEGORIES, 0.0)
    log = timeline.events
    starts, ends = _travel_union(log)
    n_pieces = len(starts)
    for kind, start, dur in zip(log.kinds, log.starts, log.durations):
        if kind is not TRAP_TRANSFER:
            cat[_CATEGORY[kind]] += dur
            continue
        # Subtract the time the union pieces cover: before the first piece
        # ending after ``start`` none can meet the transfer, and the walk
        # stops at the first piece starting at or after its end.
        end = start + dur
        covered = 0.0
        for i in range(bisect_right(ends, start), n_pieces):
            if starts[i] >= end:
                break
            lo, hi = max(starts[i], start), min(ends[i], end)
            if hi > lo:
                covered += hi - lo
        cat["trap_transfer_us"] += dur - covered
    return Breakdown(**cat, makespan_us=timeline.makespan_us)


@dataclass(frozen=True)
class FidelityReport:
    per_qubit: dict
    total: float
    n_1q: int
    n_2q: int
    n_transfer: int
    factors: dict  # named component factors, product == total


def physical_gate_count(circuit: Circuit, config: MachineConfig) -> int:
    """Transversal physical pulses: each logical 1Q/2Q gate is applied to all
    data atoms of the code block in parallel."""
    data_atoms = config.physical_per_logical // 2
    logical = sum(1 for g in circuit.gates if g.kind not in UNPULSED)
    return logical * data_atoms


def crosstalk_exposures(timeline: Timeline) -> tuple[list[int], list[int]]:
    """Per qubit, the 1Q and the 2Q pulse layers that do not drive it. The
    non-zoned policy pulses every atom of the register, so each such layer
    exposes the qubit to crosstalk once."""
    n = timeline.num_qubits
    layers = {PULSE_1Q: 0, PULSE_2Q: 0}
    driven = {kind: [0] * n for kind in layers}
    log = timeline.events
    for kind, qubits in zip(log.kinds, log.qubits):
        if kind in layers:
            layers[kind] += 1
            on = driven[kind]
            for q in qubits:
                on[q] += 1
    return tuple([layers[kind] - d for d in on] for kind, on in driven.items())


def fidelity(
    timeline: Timeline, circuit: Circuit, config: MachineConfig
) -> FidelityReport:
    """Per-qubit fidelity product; RZ is virtual and error-free, 2Q gates
    are attributed to the lower-index operand so the per-qubit product equals
    the component-factor product exactly."""
    n = timeline.num_qubits
    n1q = {q: 0 for q in range(n)}
    n2q = {q: 0 for q in range(n)}
    for g in circuit.gates:
        if g.kind in UNPULSED:
            continue
        if len(g.qubits) == 1:
            n1q[g.qubits[0]] += 1
        else:
            n2q[min(g.qubits)] += 1
    type3 = config.policy is TYPE3
    if type3:
        x1q, xcz = crosstalk_exposures(timeline)
    measured = set(timeline.measured)
    per_qubit = {}
    decoherence = 1.0
    for q in range(n):
        t_in_s = timeline.t_in_us.get(q, 0.0) * 1e-6
        t_out_s = timeline.t_out_us.get(q, 0.0) * 1e-6
        dec = math.exp(
            -(t_in_s / config.coherence_in_storage_s + t_out_s / config.coherence_out_s)
        )
        decoherence *= dec
        f = (
            config.f_1q ** n1q[q]
            * config.f_2q ** n2q[q]
            * config.f_transfer ** timeline.transfers.get(q, 0)
            * dec
        )
        if q in measured:
            f *= config.f_readout
        if type3:
            f *= (1.0 - config.xtalk_1q) ** x1q[q] * (1.0 - config.xtalk_cz) ** xcz[q]
        per_qubit[q] = f
    total_1q = sum(n1q.values())
    total_2q = sum(n2q.values())
    total_tr = sum(timeline.transfers.values())
    factors = {
        "f_1q": config.f_1q**total_1q,
        "f_2q": config.f_2q**total_2q,
        "f_transfer": config.f_transfer**total_tr,
        "f_readout": config.f_readout ** len(measured),
        "f_decoherence": decoherence,
    }
    if type3:
        factors["f_crosstalk"] = (1.0 - config.xtalk_1q) ** sum(x1q) * (
            1.0 - config.xtalk_cz
        ) ** sum(xcz)
    total = 1.0
    for v in factors.values():
        total *= v
    return FidelityReport(
        per_qubit=per_qubit,
        total=total,
        n_1q=total_1q,
        n_2q=total_2q,
        n_transfer=total_tr,
        factors=factors,
    )


# ---------------------------------------------------------------------------
# Stable serialization
# ---------------------------------------------------------------------------

REPORT_KEYS = (
    *CATEGORIES, "makespan_us", "loads", "stores", "n_1q", "n_2q", "n_transfer", "fidelity"
)


def report_record(bd: Breakdown, fr: FidelityReport, loads: int, stores: int) -> dict:
    """One run's report, keyed in ``REPORT_KEYS`` order."""
    values = (*bd.categories.values(), bd.makespan_us, loads, stores,
              fr.n_1q, fr.n_2q, fr.n_transfer, fr.total)
    return dict(zip(REPORT_KEYS, values, strict=True))


def format_value(v) -> str:
    """A report value as printed: a float to six places, a count as is."""
    return f"{v:.6f}" if isinstance(v, float) else str(v)


def format_record(rec: dict) -> str:
    return "".join(f"{k} = {format_value(v)}\n" for k, v in rec.items())


def csv_header(extra: tuple[str, ...] = ()) -> str:
    return ",".join(tuple(extra) + REPORT_KEYS)


def csv_row(rec: dict, extra: tuple = ()) -> str:
    return ",".join([*map(str, extra), *(format_value(rec[k]) for k in REPORT_KEYS)])


# ---------------------------------------------------------------------------
# Pipeline entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Result:
    program: ZoneStepProgram
    flat: Circuit  # program.flatten()
    timeline: Timeline
    loads: int
    stores: int
    breakdown: Breakdown
    fidelity: FidelityReport
    phys_gates: int

    @property
    def record(self) -> dict:
        return report_record(self.breakdown, self.fidelity, self.loads, self.stores)


@paused_gc
def run(
    source,
    options: PipelineOptions = PipelineOptions(),
    config: MachineConfig = MachineConfig(),
) -> Result:
    """Compile a circuit, Pauli-term file or benchmark spec, lay it out,
    schedule it and cost the schedule. Compile errors are
    ``CircuitError``/``ValueError``; a program the machine cannot hold raises
    ``LayoutError``, before a spec is built or any compile work is done."""
    layout = build_layout(config, source.num_qubits)
    if isinstance(source, BenchmarkSpec):
        source = source.materialize()
    program = mantra_pipeline(source, options)
    timeline = schedule(program, layout, config)
    loads, stores = count_ld_st(timeline)
    flat = program.flatten()
    return Result(
        program=program,
        flat=flat,
        timeline=timeline,
        loads=loads,
        stores=stores,
        breakdown=breakdown(timeline),
        fidelity=fidelity(timeline, flat, config),
        phys_gates=physical_gate_count(flat, config),
    )
