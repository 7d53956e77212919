"""Benchmark for zonec: end-to-end and per-layer timings, machine-side
results, and output checks, on one seeded workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ucc-pauli --seed 0 --seconds 25 --trace 0

Workloads (see ``layer_map.json`` for why each was chosen): ``ucc-pauli``,
``qaoa-rzz``, ``qasm-idiom``. Each is a closed loop of one client: an
instance starts when the previous one has finished. A run

1. times fresh interpreters importing ``zonec.cli`` (``setup_s``) and runs
   ``zonec simulate`` cold, checking its output against the golden file;
2. makes a warm-up pass over the instance list and checks every output;
3. repeats the list until ``--seconds`` have passed, checking that every
   machine-side result repeats exactly;
4. checks small instances' unitaries against independent references.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, prints the per-layer metrics, and
writes the spans to ``perfbench/out/``. The last line of stdout is one JSON
object; the exit code is 0 only if every check passed. The program under
test is the ``zonec`` package under ``src/`` of the checkout this file sits
in; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zonec" / "__init__.py").is_file():
        print(f"error: zonec sources not found under {SRC}", file=sys.stderr)
        return 2
    # One process, no threads: keep numpy's BLAS (used by the reference
    # checks) single-threaded, here and in the interpreters spawned.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import zonec

    if Path(zonec.__file__).resolve().parent != (SRC / "zonec").resolve():
        print(f"error: imported zonec from {zonec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
