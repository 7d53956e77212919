#!/usr/bin/env python3
"""Compile the benchmark suite in both modes and print a comparison table:
LD/ST counts, physical gate counts, makespan, and estimated fidelity."""

from dataclasses import replace

import click

from zonec.arch import MachineConfig, Policy
from zonec.cost import run
from zonec.frontend import parse_benchmark
from zonec.rewrite import PipelineOptions

SUITE = (
    "ghz:40:path",
    "ghz:80:path",
    "ghz:120:path",
    "ucc:5:10",
    "ucc:10:10",
    "ucc:15:10",
    "qaoa-sk:8:2",
    "qaoa-pl:12:2",
)


def compare(bench, mode, seed, cfg):
    # For GHZ the mantra pipeline prefers the fountain chain shape.
    if bench.startswith("ghz") and mode == "mantra":
        bench = bench.rsplit(":", 1)[0] + ":fountain"
    source = parse_benchmark(bench, seed=seed).materialize()
    r = run(source, PipelineOptions(mode=mode), cfg)
    return r.loads + r.stores, r.phys_gates, r.breakdown, r.fidelity


@click.command()
@click.option("--seed", type=int, default=10, show_default=True)
@click.option("--policy", type=click.Choice(["type1", "type2", "type3"]),
              default="type1", show_default=True)
def main(seed, policy):
    cfg = replace(MachineConfig(), policy=Policy(policy))
    hdr = (f"{'benchmark':14s} {'ld/st s->m':>12s} {'phys s->m':>12s} "
           f"{'makespan(ms) s->m':>20s} {'fidelity s->m':>16s}")
    click.echo(hdr)
    click.echo("-" * len(hdr))
    for bench in SUITE:
        ls_s, ph_s, bd_s, fr_s = compare(bench, "standard", seed, cfg)
        ls_m, ph_m, bd_m, fr_m = compare(bench, "mantra", seed, cfg)
        click.echo(
            f"{bench:14s} {ls_s:5d}->{ls_m:<5d} {ph_s:5d}->{ph_m:<5d} "
            f"{bd_s.makespan_us / 1000:8.1f}->{bd_m.makespan_us / 1000:<8.1f} "
            f"{fr_s.total:7.3f}->{fr_m.total:<7.3f}"
        )


if __name__ == "__main__":
    main()
