"""The benchmark run behind ``run.py``: set-up timing, warm-up with output
checks, timed passes, the traced run, and the metrics. Import it only once
the checkout's ``src`` is on ``sys.path``."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from zonec.arch import build_layout

from checks import UnitaryCheck, check_mantra_not_worse, check_outcome
from reference import aod_order_violations
from spans import NullTracer, Tracer, layer_self_times
from stages import CONFIGS, prepare, replay_passes, run_instance
from workloads import QaoaInput, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_ghz40_standard.txt"
GOLDEN_ARGS = ("simulate", "--bench", "ghz:40:path", "--mode", "standard", "--format", "record")
SETUP_SPAWNS = 9
CLI_SPAWNS = 3
MIN_PASSES = 3  # timed passes per kind, whatever --seconds says
TAIL_BEYOND = 10  # the tail percentile has this many instances above it
TRAVEL_KINDS = ("LOAD", "STORE", "READOUT_MOVE", "EC_PREP")  # what cost._overlap scans
SPAN_NAMES = ("frontend.parse_pauli", "frontend.materialize", "frontend.parse_qasm",
              "rewrite.pipeline", "arch.build_layout", "ir.flatten",
              "scheduler.schedule", "cost.breakdown", "cost.fidelity")
PASS_NAMES = tuple(f"rewrite.{p}" for p in (
    "synth_pauli", "lower_cx_to_cz", "cancel_hadamard_pairs", "substitute_rzz",
    "lower_swap", "align_zone_steps", "lower_rzz_to_cx", "layer_zone_steps"))
LAYERS = ("frontend", "rewrite", "arch", "ir", "scheduler", "cost", "bench")

# Host timings are normalised to a nominal host speed. On a shared virtual
# machine with 2 vCPUs, host speed was seen to drift by up to a quarter over
# seconds (a fixed loop timed in 2 s windows ranged from 14 to 22 ms), which
# no number of repeats averages out within a run. So a fixed reference chunk
# is timed between instances, and each instance's time is reported as
# measured time * REF_CHUNK_S / (mean of the chunks just before and after
# it): seconds at the speed where one chunk takes REF_CHUNK_S.
REF_CHUNK_S = 2.5e-4
REF_ITERATIONS = 2000
REF_SPAWN_CHUNKS = 8  # chunks timed before and after each spawned interpreter
_REF = dict.fromkeys(range(64), 0)


def reference_chunk() -> float:
    """Time a fixed pure-Python loop. It creates no object the garbage
    collector tracks, so it never pays for collections zonec caused."""
    d = _REF
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        k = i & 63
        d[k] = (d[k] + i) & 0xFFFF
    return time.perf_counter() - t0


class LocalScale:
    """Normalising factors for a run of consecutive timed items: for each,
    REF_CHUNK_S over the mean of the reference chunks timed just before and
    just after it."""

    def __init__(self):
        self._prev = reference_chunk()
        self.factors: list[float] = []

    def next(self) -> float:
        cur = reference_chunk()
        self.factors.append(2.0 * REF_CHUNK_S / (self._prev + cur))
        self._prev = cur
        return self.factors[-1]


def _spawn(args: list[str]) -> tuple[float, bytes]:
    """Run a fresh interpreter on the checkout's sources; return its
    normalised wall time and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ref = sum(reference_chunk() for _ in range(REF_SPAWN_CHUNKS))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120, check=True)
    wall = time.perf_counter() - t0
    ref += sum(reference_chunk() for _ in range(REF_SPAWN_CHUNKS))
    return wall * 2 * REF_SPAWN_CHUNKS * REF_CHUNK_S / ref, proc.stdout


class Run:
    """One workload's instances, their warm-up outcomes, and every failure."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.instances = build(workload, seed)
        self.reads = [prepare(workload, inst) for inst in self.instances]
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.outcomes: list = [None] * len(self.instances)

    def fail(self, key: str, errs: list[str]) -> None:
        if errs:
            self.failures.setdefault(key, []).extend(errs)
            for e in errs:
                print(f"FAIL {key}: {e}", file=sys.stderr)

    def execute(self, tag: str, k: int, tr):
        """Instance k from input to report record; None if it raised."""
        self.attempted += 1
        tr.instance = k
        try:
            return tr.call("instance", run_instance, self.instances[k], self.reads[k], tr)
        except Exception as e:  # counted as a failed instance, run goes on
            self.fail(f"{tag}/{self.instances[k].label}", [f"{type(e).__name__}: {e}"])
            return None

    def warm_up(self) -> None:
        for k, inst in enumerate(self.instances):
            out = self.execute("warm-up", k, NullTracer())
            self.outcomes[k] = out
            if out is not None:
                self.fail(f"warm-up/{inst.label}", check_outcome(self.workload, inst, out))
        by_input: dict[int, dict] = {}
        for inst, out in zip(self.instances, self.outcomes):
            if out is not None:
                by_input.setdefault(inst.input_id, {})[inst.mode] = out
        for inst in self.instances:
            pair = by_input.get(inst.input_id, {})
            if inst.mode == "mantra" and "standard" in pair and "mantra" in pair:
                self.fail(f"warm-up/{inst.label}",
                          check_mantra_not_worse(pair["mantra"], pair["standard"]))

    def timed_pass(self, tag: str, tr) -> tuple[list[float], list[float]]:
        """One pass over the list: each instance's normalised time, and the
        factor that normalised it."""
        gc.collect()
        keys, lat = [], []
        scale = LocalScale()
        for k in range(len(self.instances)):
            t0 = time.perf_counter()
            out = self.execute(tag, k, tr)
            lat.append((time.perf_counter() - t0) * scale.next())
            keys.append(None if out is None else out.machine_key())
        for k, key in enumerate(keys):
            first = self.outcomes[k]
            if key is not None and first is not None and key != first.machine_key():
                self.fail(f"{tag}/{self.instances[k].label}",
                          ["machine-side result differs from the warm-up pass"])
        return lat, scale.factors

    def replay(self, tr) -> dict[int, float]:
        """Re-run the rewrite passes one by one under spans; return each
        instance's normalising factor."""
        scale, factors = LocalScale(), {}
        for k, (inst, out) in enumerate(zip(self.instances, self.outcomes)):
            if out is None:
                continue
            tr.instance = k
            steps = tr.call("replay", replay_passes, out.source, inst.mode, tr)
            factors[k] = scale.next()
            if steps != [(s.zone, s.gates) for s in out.program.steps]:
                self.fail(f"replay/{inst.label}",
                          ["per-pass replay differs from mantra_pipeline's steps"])
        return factors

    def check_unitaries(self) -> None:
        check = UnitaryCheck()
        for inst, out in zip(self.instances, self.outcomes):
            if out is not None:
                self.fail(f"warm-up/{inst.label}", check(inst, out))

    def check_cli(self) -> list[float]:
        """Cold ``zonec simulate`` runs; each stdout must equal the golden
        file byte for byte. Returns their normalised times."""
        golden = GOLDEN.read_bytes()
        times = []
        for i in range(CLI_SPAWNS):
            self.attempted += 1
            try:
                t, stdout = _spawn(["-m", "zonec.cli", *GOLDEN_ARGS])
            except subprocess.SubprocessError as e:
                self.fail(f"cli/{i}", [f"zonec simulate failed: {e}"])
                continue
            times.append(t)
            if stdout != golden:
                self.fail(f"cli/{i}", [f"stdout differs from {GOLDEN.name}"])
        return times


def _normalised(spans, factors) -> list:
    """Spans with times scaled by their instance's normalising factor."""
    return [(sid, parent, inst, name, start * factors[inst], end * factors[inst])
            for sid, parent, inst, name, start, end in spans]


def _span_sums(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for _, _, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def _medians(dicts: list[dict], names) -> dict[str, float]:
    return {n: statistics.median(d.get(n, 0.0) for d in dicts) for n in names}


@dataclass
class Timed:
    """Everything the timed phase measured, one entry per pass."""

    untraced: list = field(default_factory=list)  # normalised suite seconds
    traced: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # per untraced pass, per instance
    factors: list = field(default_factory=list)  # every normalising factor
    span_sums: list = field(default_factory=list)
    self_times: list = field(default_factory=list)
    replay_sums: list = field(default_factory=list)


def timed_phase(run: Run, seconds: float, tracer: Tracer | None) -> Timed:
    """Untraced passes until ``seconds`` have passed; with a tracer, each
    followed by a traced pass and a per-pass replay."""
    m = Timed()
    deadline = time.perf_counter() + seconds
    while (len(m.untraced) < MIN_PASSES or (tracer and len(m.traced) < MIN_PASSES)
           or time.perf_counter() < deadline):
        lat, factors = run.timed_pass(f"pass{len(m.untraced)}", NullTracer())
        m.untraced.append(sum(lat))
        m.latencies.append(lat)
        m.factors += factors
        if tracer is None:
            continue
        a = len(tracer.spans)
        lat, factors = run.timed_pass(f"traced{len(m.traced)}", tracer)
        m.traced.append(sum(lat))
        suite_spans = _normalised(tracer.spans[a:], factors)
        b = len(tracer.spans)
        replay_factors = run.replay(tracer)
        m.span_sums.append(_span_sums(suite_spans))
        m.self_times.append(layer_self_times(suite_spans))
        m.replay_sums.append(_span_sums(_normalised(tracer.spans[b:], replay_factors)))
    return m


def end_to_end_metrics(run: Run, m: Timed, setup: list[float], peak_rss_mb: float) -> dict:
    # Per-instance time is the median over passes; p75 is the highest
    # order statistic with TAIL_BEYOND of the 40 instances above it.
    per_instance = sorted(statistics.median(ts) for ts in zip(*m.latencies))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "suite_s": (statistics.median(m.untraced), "s"),
        "latency_p50_s": (statistics.median(per_instance), "s"),
        "latency_p75_s": (per_instance[-TAIL_BEYOND - 1], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    outs = [o for o in run.outcomes if o is not None]
    if len(outs) == len(run.instances):
        metrics.update({
            "machine_time_s": (sum(o.timeline.makespan_us for o in outs) * 1e-6, "s"),
            "ld_st": (sum(o.loads + o.stores for o in outs), "count"),
            "neg_log10_fidelity": (-sum(math.log10(o.fidelity.total) for o in outs), "log10"),
            "phys_gates": (sum(o.phys_gates for o in outs), "count"),
        })
    return metrics


def _count_metrics(run: Run) -> dict:
    """Per-layer counts over the warm-up outcomes; they repeat exactly."""
    pairs = [(i, o) for i, o in zip(run.instances, run.outcomes) if o is not None]
    outs = [o for _, o in pairs]
    kinds = [[e.kind.value for e in o.timeline.events] for o in outs]
    zz = sum(i.source.zz_count for i in run.instances if isinstance(i.source, QaoaInput))
    lp = sum(sum(1 for g in o.flat.gates if g.kind.value == "LP") for o in outs)
    aod = []
    for inst, out in pairs:
        layout = build_layout(CONFIGS[inst.policy], out.program.num_qubits)
        sites = {q: (s.row, s.col) for q, s in enumerate(layout.qubits)}
        aod.append(aod_order_violations(out.program, out.timeline, sites))
    excess = [abs(sum(o.breakdown.categories.values()) - o.timeline.makespan_us) for o in outs]
    unreconciled = [d for d, o in zip(excess, outs) if d > 1e-9 * o.timeline.makespan_us]
    return {
        "rewrite.zone_steps": (sum(len(o.program.steps) for o in outs), "count"),
        "rewrite.boundary_crossings": (sum(o.program.boundary_crossings() for o in outs), "count"),
        "rewrite.gates_out": (sum(len(o.flat.gates) for o in outs), "count"),
        "rewrite.idioms_written": (zz, "count"),
        "rewrite.rzz_pairs_emitted": (lp, "count"),
        "rewrite.fold_ratio": (lp / zz if zz else 0.0, "ratio"),
        "scheduler.events": (sum(len(k) for k in kinds), "count"),
        "scheduler.loads": (sum(o.loads for o in outs), "count"),
        "scheduler.stores": (sum(o.stores for o in outs), "count"),
        "scheduler.transfers": (sum(k.count("TRAP_TRANSFER") for k in kinds), "count"),
        "scheduler.shuttles": (sum(k.count("SHUTTLE") for k in kinds), "count"),
        "scheduler.aod_violation_layers": (sum(v for v, _ in aod), "count"),
        "scheduler.entangling_layers": (sum(n for _, n in aod), "count"),
        "cost.transfer_x_travel": (sum(k.count("TRAP_TRANSFER") * sum(map(k.count, TRAVEL_KINDS))
                                       for k in kinds), "count"),
        "cost.unreconciled": (len(unreconciled), "count"),
        "cost.unreconciled_us": (sum(unreconciled), "us"),
    }


def per_layer_metrics(run: Run, m: Timed, cli_times: list[float], spans: int) -> dict:
    def rate(n, s):
        return n / s if s > 0 else 0.0

    t = _medians(m.span_sums, SPAN_NAMES)
    st = _medians(m.self_times, LAYERS)
    counts = _count_metrics(run)
    gates = sum(len(o.source.gates) for r, o in zip(run.reads, run.outcomes)
                if o is not None and r[0] == "frontend.materialize")
    lines = sum(r[2].count("\n") for r in run.reads if r[0] == "frontend.parse_qasm")
    traced, untraced = statistics.median(m.traced), statistics.median(m.untraced)
    metrics = {f"{n}_s": (v, "s") for n, v in t.items()}
    metrics.update({f"{n}_s": (v, "s") for n, v in _medians(m.replay_sums, PASS_NAMES).items()})
    metrics["frontend.gates_per_s"] = (rate(gates, t["frontend.materialize"]), "1/s")
    metrics["frontend.lines_per_s"] = (rate(lines, t["frontend.parse_qasm"]), "1/s")
    metrics["scheduler.us_per_event"] = (
        rate(t["scheduler.schedule"] * 1e6, counts["scheduler.events"][0]), "us")
    metrics.update(counts)
    metrics["cli.simulate_cold_s"] = (statistics.median(cli_times) if cli_times else 0.0, "s")
    metrics.update({f"self.{n}_s": (v, "s") for n, v in st.items()})
    metrics["trace.suite_s"] = (traced, "s")
    metrics["trace.untraced_suite_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.accounted_frac"] = (sum(st.values()) / traced, "ratio")
    metrics["trace.spans"] = (spans, "count")
    metrics["bench.host_slowdown"] = (1.0 / statistics.median(m.factors), "ratio")
    return metrics


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t_start = time.perf_counter()
    run = Run(workload, seed)
    setup = [] if trace else [_spawn(["-c", "import zonec.cli"])[0] for _ in range(SETUP_SPAWNS)]
    cli_times = run.check_cli()
    t_warm = time.perf_counter()
    run.warm_up()
    t_timed = time.perf_counter()
    tracer = Tracer() if trace else None
    m = timed_phase(run, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_checks = time.perf_counter()
    run.check_unitaries()
    t_end = time.perf_counter()

    if tracer is None:
        metrics = end_to_end_metrics(run, m, setup, peak_rss_mb)
    else:
        metrics = per_layer_metrics(run, m, cli_times, len(tracer.spans))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        labels = {k: i.label for k, i in enumerate(run.instances)}
        tracer.write_chrome(out_dir / f"trace-{workload}-seed{seed}.json", labels)

    failed = len(run.failures)
    print(f"{workload} seed={seed}: {len(run.instances)} instances, "
          f"{len(m.untraced)} timed passes, {run.attempted} attempted, {failed} failed; "
          f"set-up {t_warm - t_start:.1f} s, warm-up {t_timed - t_warm:.1f} s, "
          f"timed {t_checks - t_timed:.1f} s, unitary checks {t_end - t_checks:.1f} s; "
          f"host slowdown {1.0 / statistics.median(m.factors):.3f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1
