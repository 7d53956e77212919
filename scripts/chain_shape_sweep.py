#!/usr/bin/env python3
"""Sweep GHZ chain shapes over qubit count and compare compiled cost.

Emits one CSV row per (n, chain) with LD/ST counts, makespan, and fidelity,
for offline plotting of the crossover between the log-depth parallel tree and
the movement-friendly fountain chain.
"""

import click

from zonec.arch import MachineConfig
from zonec.cost import run
from zonec.frontend import gen_ghz
from zonec.rewrite import PipelineOptions


@click.command()
@click.option("--sizes", default="8,16,24,32,48,64,80,100",
              show_default=True, help="comma-separated qubit counts")
@click.option("--chains", default="fountain,parallel,path", show_default=True)
@click.option("--mode", type=click.Choice(["mantra", "standard"]),
              default="mantra", show_default=True)
def main(sizes, chains, mode):
    cfg = MachineConfig()
    click.echo("n,chain,loads,stores,makespan_us,load_store_us,shuttling_us,fidelity")
    for n in (int(s) for s in sizes.split(",")):
        for chain in chains.split(","):
            r = run(gen_ghz(n, chain=chain), PipelineOptions(mode=mode), cfg)
            bd = r.breakdown
            click.echo(
                f"{n},{chain},{r.loads},{r.stores},{bd.makespan_us:.1f},"
                f"{bd.load_store_us:.1f},{bd.shuttling_us:.1f},{r.fidelity.total:.6f}"
            )


if __name__ == "__main__":
    main()
