"""Reduces a Timeline to an execution-time breakdown and a product-form
fidelity estimate; ``run`` is the whole compile→schedule→cost path.

Breakdown categories: load/store (zone-gap travel, incl. readout travel),
trap transfer (exposed remainder only — time hidden under concurrent travel
is not charged), shuttling, readout imaging, error-correction prep, and gate
execution. Transfer exposure is measured against the merged union of the
travel intervals (load, store, readout travel, error-correction prep), built
once per timeline. Fidelity multiplies per-gate, per-transfer, readout,
decoherence and (non-zoned policy) crosstalk factors per logical qubit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .arch import MachineConfig, Policy, build_layout
from .ir import Circuit, GateKind
from .rewrite import PipelineOptions, ZoneStepProgram, mantra_pipeline
from .scheduler import EventKind, Timeline, count_ld_st, schedule

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
        return {
            "load_store_us": self.load_store_us,
            "trap_transfer_us": self.trap_transfer_us,
            "shuttling_us": self.shuttling_us,
            "readout_us": self.readout_us,
            "error_correction_us": self.error_correction_us,
            "gate_execution_us": self.gate_execution_us,
        }

    def share(self, name: str) -> float:
        if self.makespan_us == 0.0:
            return 0.0
        return self.categories[name] / self.makespan_us


def _travel_union(events) -> tuple[list[float], list[float]]:
    """Starts and ends of the union of the travel events' intervals, as
    sorted disjoint pieces. Only overlapping intervals merge; touching ones
    stay apart, so on travel that never overlaps (the scheduler's) every
    piece is one event's interval, and the ends ascend."""
    starts: list[float] = []
    ends: list[float] = []
    for lo, hi in sorted((e.start_us, e.end_us) for e in events if e.kind in _TRAVEL_KINDS):
        if ends and lo < ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            starts.append(lo)
            ends.append(hi)
    return starts, ends


def _covered(start: float, end: float, starts: list[float], ends: list[float]) -> float:
    """Time of [start, end] covered by the union pieces: before the first
    piece ending after ``start`` none can meet it, and the walk stops at
    the first piece starting at or after ``end``."""
    covered = 0.0
    for i in range(bisect_right(ends, start), len(starts)):
        if starts[i] >= end:
            break
        lo, hi = max(starts[i], start), min(ends[i], end)
        if hi > lo:
            covered += hi - lo
    return covered


# Breakdown field each event kind is charged to; any other kind counts as
# gate execution. A TRAP_TRANSFER is charged only its uncovered time.
_CATEGORY = {
    EventKind.LOAD: "load_store_us",
    EventKind.STORE: "load_store_us",
    EventKind.READOUT_MOVE: "load_store_us",
    EventKind.TRAP_TRANSFER: "trap_transfer_us",
    EventKind.SHUTTLE: "shuttling_us",
    EventKind.READOUT_IMAGE: "readout_us",
    EventKind.EC_PREP: "error_correction_us",
}


def breakdown(timeline: Timeline) -> Breakdown:
    cat = dict.fromkeys(
        ("load_store_us", "trap_transfer_us", "shuttling_us", "readout_us",
         "error_correction_us", "gate_execution_us"),
        0.0,
    )
    starts, ends = _travel_union(timeline.events)
    for e in timeline.events:
        name = _CATEGORY.get(e.kind, "gate_execution_us")
        if e.kind is EventKind.TRAP_TRANSFER:
            cat[name] += e.duration_us - _covered(e.start_us, e.end_us, starts, ends)
        else:
            cat[name] += e.duration_us
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
    logical = sum(
        1
        for g in circuit.gates
        if g.kind not in (GateKind.RZ, GateKind.MEASURE)
    )
    return logical * data_atoms


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
        if g.kind in (GateKind.RZ, GateKind.MEASURE):
            continue
        if len(g.qubits) == 1:
            n1q[g.qubits[0]] += 1
        else:
            n2q[min(g.qubits)] += 1
    measured = set(timeline.measured)
    per_qubit = {}
    decoherence = 1.0
    xt1 = xtc = 0
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
        if config.policy is Policy.TYPE3:
            e1 = timeline.xtalk_1q_exposures.get(q, 0)
            ec = timeline.xtalk_cz_exposures.get(q, 0)
            f *= (1.0 - config.xtalk_1q) ** e1 * (1.0 - config.xtalk_cz) ** ec
            xt1 += e1
            xtc += ec
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
    if config.policy is Policy.TYPE3:
        factors["f_crosstalk"] = (1.0 - config.xtalk_1q) ** xt1 * (
            1.0 - config.xtalk_cz
        ) ** xtc
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
    "load_store_us",
    "trap_transfer_us",
    "shuttling_us",
    "readout_us",
    "error_correction_us",
    "gate_execution_us",
    "makespan_us",
    "loads",
    "stores",
    "n_1q",
    "n_2q",
    "n_transfer",
    "fidelity",
)


def report_record(bd: Breakdown, fr: FidelityReport, loads: int, stores: int) -> dict:
    rec = dict(bd.categories)
    rec["makespan_us"] = bd.makespan_us
    rec["loads"] = loads
    rec["stores"] = stores
    rec["n_1q"] = fr.n_1q
    rec["n_2q"] = fr.n_2q
    rec["n_transfer"] = fr.n_transfer
    rec["fidelity"] = fr.total
    return {k: rec[k] for k in REPORT_KEYS}


def format_record(rec: dict) -> str:
    lines = []
    for k, v in rec.items():
        if isinstance(v, float):
            lines.append(f"{k} = {v:.6f}")
        else:
            lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def csv_header(extra: tuple[str, ...] = ()) -> str:
    return ",".join(tuple(extra) + REPORT_KEYS)


def csv_row(rec: dict, extra: tuple = ()) -> str:
    vals = [str(x) for x in extra]
    for k in REPORT_KEYS:
        v = rec[k]
        vals.append(f"{v:.6f}" if isinstance(v, float) else str(v))
    return ",".join(vals)


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


def run(
    source,
    options: PipelineOptions = PipelineOptions(),
    config: MachineConfig = MachineConfig(),
) -> Result:
    """Compile a circuit or Pauli-term file, lay it out, schedule it and cost
    the schedule. Compile errors are ``CircuitError``/``ValueError``; a
    program the machine cannot hold raises ``LayoutError``/``ScheduleError``."""
    program = mantra_pipeline(source, options)
    timeline = schedule(program, build_layout(config, program.num_qubits), config)
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
