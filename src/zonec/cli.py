"""Command-line surface: compile, simulate, and sweep.

stdout carries data only; diagnostics go to stderr. Exit codes: 0 ok,
1 usage error, 2 input/parse error, 3 capacity or routing error.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from .arch import LayoutError, MachineConfig, Policy, build_layout, load_config
from .cost import REPORT_KEYS, csv_header, csv_row, format_record, run
from .frontend import parse_benchmark, parse_pauli_file, parse_qasm
from .ir import CircuitError, count_gates
from .rewrite import PipelineOptions
from .scheduler import ScheduleError

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


# What a bad input, a bad config or a program the machine cannot hold
# raises; ConfigError, LayoutError and ParseError are ValueErrors.
_ERRORS = (OSError, CircuitError, ValueError, ScheduleError)


def _exit_code(e: Exception) -> int:
    return EXIT_CAPACITY if isinstance(e, (LayoutError, ScheduleError)) else EXIT_INPUT


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _or_exit(f, *args):
    """``f(*args)``; on one of the ``_ERRORS``, exit with its code."""
    try:
        return f(*args)
    except _ERRORS as e:
        _fail(_exit_code(e), str(e))


def _machine(config_path, policy) -> MachineConfig:
    cfg = load_config(config_path) if config_path else MachineConfig()
    return replace(cfg, policy=Policy(policy)) if policy else cfg


def _compile(cfg, bench, qasm, pauli, seed, mode, protocol, x_basis):
    """Parse the one input, check it against the layout's capacity rule,
    then compile, schedule and cost it. Building a benchmark or compiling a
    file does work that grows with its qubit count, so an oversized register
    must fail first."""
    if bench:
        source = parse_benchmark(bench, seed=seed)
    else:
        with open(qasm or pauli) as fh:
            text = fh.read()
        source = parse_qasm(text) if qasm else parse_pauli_file(text)
    build_layout(cfg, source.num_qubits)
    if bench:
        source = source.materialize()
    return run(source, PipelineOptions(mode=mode, protocol=protocol, x_basis=x_basis), cfg)


def _result(bench, qasm, pauli, mode, policy, config_path, seed, x_basis, protocol):
    """The costed run of compile's and simulate's one input."""
    cfg = _or_exit(_machine, config_path, policy)
    if len([x for x in (bench, qasm, pauli) if x]) != 1:
        _fail(EXIT_USAGE, "exactly one of --bench, --qasm, --pauli is required")
    return _or_exit(_compile, cfg, bench, qasm, pauli, seed, mode, protocol, x_basis)


_INPUT = [
    click.option("--bench", help="benchmark spec, e.g. ghz:80:fountain, "
                 "ucc:15:10, qaoa-sk:8:2, qaoa-pl:12:2, po:10:1"),
    click.option("--qasm", type=click.Path(), help="OpenQASM 2.0 input file"),
    click.option("--pauli", type=click.Path(), help="Pauli term input file"),
    click.option("--mode", type=click.Choice(["mantra", "standard"]),
                 default="mantra", show_default=True),
]
_MACHINE = [
    click.option("--policy", type=click.Choice(["type1", "type2", "type3"]),
                 default=None, help="operation policy (default: config file or type1)"),
    click.option("--config", "config_path", type=click.Path(),
                 envvar="ZONEC_CONFIG", help="machine config file"),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--x-basis", is_flag=True, help="absorb leading/trailing "
                 "basis changes into preparation and readout"),
    click.option("--protocol", type=click.Choice(["adiabatic", "cphase"]),
                 default="adiabatic", show_default=True),
]


def _options(opts):
    def decorate(f):
        for opt in reversed(opts):
            f = opt(f)
        return f

    return decorate


_common = _options(_INPUT + _MACHINE)


@click.group()
def cli():
    """Compiler and execution-cost simulator for zoned atom arrays."""


@cli.command("compile")
@_common
@click.option("--format", "fmt", type=click.Choice(["human", "steps"]),
              default="human", show_default=True)
def cmd_compile(bench, qasm, pauli, mode, policy, config_path, seed, x_basis,
                protocol, fmt):
    """Compile to a zone-step program and report gate/movement counts."""
    result = _result(bench, qasm, pauli, mode, policy, config_path, seed, x_basis,
                     protocol)
    counts = count_gates(result.flat)
    if fmt == "steps":
        for i, step in enumerate(result.program.steps):
            click.echo(f"step {i} {step.zone.value} {len(step.gates)}")
    else:
        for i, step in enumerate(result.program.steps):
            names = " ".join(
                f"{g.kind.value}({','.join(map(str, g.qubits))})" for g in step.gates
            )
            click.echo(f"step {i} [{step.zone.value}] {names}")
    click.echo(f"n_1q = {counts.n_1q}")
    click.echo(f"n_rz = {counts.n_rz}")
    click.echo(f"n_2q = {counts.n_2q}")
    click.echo(f"n_physical = {result.phys_gates}")
    click.echo(f"ld_st = {result.loads + result.stores}")


@cli.command("simulate")
@_common
@click.option("--format", "fmt", type=click.Choice(["human", "record", "csv"]),
              default="record", show_default=True)
@click.option("--events", is_flag=True, help="also dump the event timeline")
def cmd_simulate(bench, qasm, pauli, mode, policy, config_path, seed, x_basis,
                 protocol, fmt, events):
    """Schedule on the machine model and report time breakdown + fidelity."""
    result = _result(bench, qasm, pauli, mode, policy, config_path, seed, x_basis,
                     protocol)
    rec = result.record
    if events:
        click.echo(result.timeline.to_lines(), nl=False)
    if fmt == "csv":
        click.echo(csv_header())
        click.echo(csv_row(rec))
    elif fmt == "human":
        for k, v in rec.items():
            label = k.replace("_us", " (us)").replace("_", " ")
            click.echo(f"{label:24s} {v:.6f}" if isinstance(v, float)
                       else f"{label:24s} {v}")
    else:
        click.echo(format_record(rec), nl=False)


@cli.command("sweep")
@click.option("--bench", "bench_template", required=True,
              help="benchmark template with {axis} placeholder, e.g. ghz:{n}:path")
@click.option("--axis", required=True, help="axis spec name=v1,v2,...")
@click.option("--modes", default="mantra", show_default=True,
              help="comma-separated compile modes, one row per mode per point")
@_options(_MACHINE)
def cmd_sweep(bench_template, axis, modes, policy, config_path, seed, x_basis,
              protocol):
    """Run a benchmark template across one axis; emit one CSV row per point."""
    if "=" not in axis:
        _fail(EXIT_USAGE, "axis must look like name=v1,v2,...")
    name, _, values = axis.partition("=")
    name = name.strip()
    points = [v.strip() for v in values.split(",") if v.strip()]
    mode_list = [m.strip() for m in modes.split(",") if m.strip()]
    for m in mode_list:
        if m not in ("mantra", "standard"):
            _fail(EXIT_USAGE, f"unknown mode {m!r}")
    cfg = _or_exit(_machine, config_path, policy)
    click.echo(csv_header(extra=(name, "mode")))
    for point in points:
        spec = bench_template.replace("{" + name + "}", point)
        for m in mode_list:
            try:
                result = _compile(cfg, spec, None, None, seed, m, protocol, x_basis)
            except _ERRORS as e:
                click.echo(f"# point {name}={point} mode={m} failed: {e}", err=True)
                click.echo(",".join([point, m] + ["failed"] * len(REPORT_KEYS)))
            else:
                click.echo(csv_row(result.record, extra=(point, m)))


def main():
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as e:
        e.show()
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
