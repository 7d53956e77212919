#!/usr/bin/env python3
"""Compile the benchmark suite in both modes and print a comparison table:
LD/ST counts, physical gate counts, makespan, and estimated fidelity.

The last line sums LD/ST and physical gates over the suite and takes the
geometric mean of the per-benchmark fidelity ratios, beside the abstract's
headline figures. It is this suite's aggregate, not the paper's."""

import math
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
    r = run(parse_benchmark(bench, seed=seed), PipelineOptions(mode=mode), cfg)
    return r.loads + r.stores, r.phys_gates, r.breakdown, r.fidelity


def _change(before, after):
    if before == 0:  # Type 3 never loads or stores: no percentage to give
        return f"{before}->{after}"
    return f"{before}->{after} ({100 * (after - before) / before:+.1f}%)"


def _fidelity(f):
    """Three places, or one significant digit below 0.0005, which three
    places would print as 0.000."""
    return f"{f:.3f}" if f >= 0.0005 else f"{f:.1e}"


@click.command()
@click.option("--seed", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--policy", type=click.Choice([p.value for p in Policy]),
              default="type1", show_default=True)
def main(seed, policy):
    cfg = replace(MachineConfig(), policy=Policy(policy))
    hdr = (f"{'benchmark':14s} {'ld/st s->m':>12s} {'phys s->m':>12s} "
           f"{'makespan(ms) s->m':>20s} {'fidelity s->m':>16s}")
    click.echo(hdr)
    click.echo("-" * len(hdr))
    ldst, phys, ratios = [0, 0], [0, 0], []
    for bench in SUITE:
        ls_s, ph_s, bd_s, fr_s = compare(bench, "standard", seed, cfg)
        ls_m, ph_m, bd_m, fr_m = compare(bench, "mantra", seed, cfg)
        click.echo(
            f"{bench:14s} {ls_s:5d}->{ls_m:<5d} {ph_s:5d}->{ph_m:<5d} "
            f"{bd_s.makespan_us / 1000:8.1f}->{bd_m.makespan_us / 1000:<8.1f} "
            f"{_fidelity(fr_s.total):>7s}->{_fidelity(fr_m.total):<7s}"
        )
        ldst[0] += ls_s
        ldst[1] += ls_m
        phys[0] += ph_s
        phys[1] += ph_m
        ratios.append(fr_m.total / fr_s.total)
    fid = math.prod(ratios) ** (1 / len(ratios))
    click.echo(
        f"summed ld/st {_change(*ldst)}, abstract -68%; "
        f"summed phys {_change(*phys)}, abstract -35%; "
        f"geo-mean fidelity ratio x{fid:.2f}, abstract x1.17"
    )


if __name__ == "__main__":
    main()
