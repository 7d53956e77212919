#!/usr/bin/env python3
"""Sweep GHZ chain shapes over qubit count and compare compiled cost.

Emits one CSV row per (n, chain) with LD/ST counts, makespan, and fidelity,
for offline plotting of the crossover between the log-depth parallel tree and
the movement-friendly fountain chain.
"""

import click

from zonec.arch import MachineConfig
from zonec.cost import run
from zonec.frontend import CHAINS, gen_ghz
from zonec.rewrite import PipelineOptions


def _sizes(ctx, param, value):
    try:
        sizes = [int(s) for s in value.split(",")]
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not a comma-separated list of integers") from None
    most = MachineConfig().max_logical
    if min(sizes) < 2 or max(sizes) > most:
        raise click.BadParameter(f"each size must be from 2 to {most} qubits")
    return sizes


def _chains(ctx, param, value):
    chains = value.split(",")
    unknown = [c for c in chains if c not in CHAINS]
    if unknown:
        raise click.BadParameter(f"unknown chain {unknown[0]!r}, expected one of {CHAINS}")
    return chains


# Both options are checked before the CSV header is printed, so bad input
# ends in a usage error and no partial output.
@click.command()
@click.option("--sizes", default="8,16,24,32,48,64,80,100", callback=_sizes,
              show_default=True, help="comma-separated qubit counts")
@click.option("--chains", default="fountain,parallel,path", callback=_chains,
              show_default=True)
@click.option("--mode", type=click.Choice(["mantra", "standard"]),
              default="mantra", show_default=True)
def main(sizes, chains, mode):
    cfg = MachineConfig()
    click.echo("n,chain,loads,stores,makespan_us,load_store_us,shuttling_us,fidelity")
    for n in sizes:
        for chain in chains:
            r = run(gen_ghz(n, chain=chain), PipelineOptions(mode=mode), cfg)
            bd = r.breakdown
            click.echo(
                f"{n},{chain},{r.loads},{r.stores},{bd.makespan_us:.1f},"
                f"{bd.load_store_us:.1f},{bd.shuttling_us:.1f},{r.fidelity.total:.6f}"
            )


if __name__ == "__main__":
    main()
