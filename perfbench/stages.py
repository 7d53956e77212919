"""One benchmark instance, from generated input to report record, as calls
into zonec's public layer functions; and the per-pass replay of the rewrite
pipeline for the traced run."""

from __future__ import annotations

from dataclasses import dataclass, replace

from zonec import arch, cost, frontend, rewrite, scheduler
from zonec.ir import Gate, GateKind, Zone

from workloads import Instance

CONFIGS = {p.value: replace(arch.MachineConfig(), policy=p) for p in arch.Policy}


@dataclass
class Outcome:
    source: object  # parsed or materialised input
    program: rewrite.ZoneStepProgram
    timeline: scheduler.Timeline
    flat: object  # program.flatten()
    breakdown: cost.Breakdown
    fidelity: cost.FidelityReport
    loads: int
    stores: int
    phys_gates: int
    record: dict

    def machine_key(self) -> tuple:
        """Everything machine-side that must repeat exactly."""
        return tuple(self.record.values()) + (self.phys_gates,)


def _materialize(src) -> object:
    graph = frontend.Graph(src.num_qubits, src.edges, src.weights)
    return frontend.gen_qaoa(graph, src.layers, src.gammas, src.betas)


def prepare(workload: str, inst: Instance):
    """The layer call that reads the instance's input, and its argument.
    Text is rendered here, before any timing starts."""
    if workload == "ucc-pauli":
        return "frontend.parse_pauli", frontend.parse_pauli_file, inst.source.text()
    if workload == "qasm-idiom":
        return "frontend.parse_qasm", frontend.parse_qasm, inst.source.qasm()
    return "frontend.materialize", _materialize, inst.source


def run_instance(inst: Instance, read, tr) -> Outcome:
    """``read`` is what ``prepare`` returned; ``tr`` records the layer calls."""
    cfg = CONFIGS[inst.policy]
    source = tr.call(*read)
    options = rewrite.PipelineOptions(mode=inst.mode)
    program = tr.call("rewrite.pipeline", rewrite.mantra_pipeline, source, options)
    layout = tr.call("arch.build_layout", arch.build_layout, cfg, program.num_qubits)
    timeline = tr.call("scheduler.schedule", scheduler.schedule, program, layout, cfg)
    loads, stores = tr.call("scheduler.count_ld_st", scheduler.count_ld_st, timeline)
    flat = tr.call("ir.flatten", program.flatten)
    bd = tr.call("cost.breakdown", cost.breakdown, timeline)
    fr = tr.call("cost.fidelity", cost.fidelity, timeline, flat, cfg)
    phys = tr.call("cost.physical_gate_count", cost.physical_gate_count, flat, cfg)
    record = tr.call("cost.report_record", cost.report_record, bd, fr, loads, stores)
    return Outcome(source, program, timeline, flat, bd, fr, loads, stores, phys, record)


# ---------------------------------------------------------------------------
# Per-pass replay. It calls the public passes in the order mantra_pipeline
# applies them (x-basis absorption is off in every workload), so that each
# pass gets its own span; the caller asserts the replayed steps equal the
# pipeline's, so this copy cannot drift from the pipeline unnoticed.
# ---------------------------------------------------------------------------


def _compile_steps(circuit, mode: str, tr) -> list[tuple[Zone, tuple[Gate, ...]]]:
    if mode == "standard":
        c = tr.call("rewrite.lower_rzz_to_cx", rewrite.lower_rzz_to_cx, circuit)
        c, _ = tr.call("rewrite.lower_swap", rewrite.lower_swap, c)
        program = tr.call("rewrite.layer_zone_steps", rewrite.layer_zone_steps, c)
    else:
        c = tr.call("rewrite.lower_cx_to_cz", rewrite.lower_cx_to_cz, circuit)
        c = tr.call("rewrite.cancel_hadamard_pairs", rewrite.cancel_hadamard_pairs, c)
        c = tr.call("rewrite.substitute_rzz", rewrite.substitute_rzz, c)
        c, _ = tr.call("rewrite.lower_swap", rewrite.lower_swap, c)
        program = tr.call("rewrite.align_zone_steps", rewrite.align_zone_steps, c)
    return [(s.zone, s.gates) for s in program.steps]


def _merge(steps):
    merged: list[tuple[Zone, tuple[Gate, ...]]] = []
    for zone, gates in steps:
        if merged and merged[-1][0] is zone:
            merged[-1] = (zone, merged[-1][1] + gates)
        else:
            merged.append((zone, gates))
    return merged


def replay_passes(source, mode: str, tr) -> list[tuple[Zone, tuple[Gate, ...]]]:
    """Zone steps from the passes run one by one. Pauli-term files are
    synthesised and compiled term by term, seams merged, then one readout
    step measures every qubit."""
    if not isinstance(source, frontend.PauliTermFile):
        return _compile_steps(source, mode, tr)
    synth = rewrite.synth_pauli_fountain if mode == "mantra" else rewrite.synth_pauli_path
    steps = []
    for term in source.terms:
        if term.weight:
            steps += _compile_steps(tr.call("rewrite.synth_pauli", synth, term), mode, tr)
    measures = tuple(Gate(GateKind.MEASURE, (q,)) for q in range(source.num_qubits))
    return _merge(steps + [(Zone.READOUT, measures)])
