"""Bit-identity guard for the compile→schedule→cost path.

One SHA-256 per configuration over ``float.hex`` of every timeline event
(kind, qubits, start, duration), the per-qubit ``t_in_us``/``t_out_us``/
``transfers``, the breakdown categories and the fidelity total. The stored
digests in ``tests/data/schedule_digest.txt`` pin today's schedules exactly;
a speed-up of the scheduler or the rewrite passes must leave them unchanged.

Regenerate (only for a deliberate behaviour change, saying which
configurations moved and why):

    PYTHONPATH=src python tests/test_schedule_digest.py > tests/data/schedule_digest.txt
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from zonec.arch import MachineConfig, Policy
from zonec.cost import run
from zonec.frontend import parse_benchmark, parse_qasm
from zonec.rewrite import MODES, PipelineOptions

DIGEST_FILE = Path(__file__).parent / "data" / "schedule_digest.txt"

SWAP_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[6];
creg c[6];
h q[0];
h q[3];
cx q[0],q[1];
rz(0.3) q[1];
cx q[0],q[1];
swap q[1],q[4];
rx(pi/3) q[2];
cz q[2],q[4];
cx q[3],q[5];
rz(-0.7) q[5];
cx q[3],q[5];
swap q[0],q[5];
rzz(0.25) q[0],q[2];
h q[1];
cx q[4],q[1];
h q[4];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[4] -> c[4];
"""

BENCHES = (
    "ghz:12:path",
    "ghz:12:fountain",
    "ghz:12:parallel",
    "ucc:8:6",
    "qaoa-sk:8:2",
    "qaoa-pl:12:2",
)


def _source(name: str):
    if name == "qasm:swap":
        return parse_qasm(SWAP_QASM)
    return parse_benchmark(name, seed=0).materialize()


def configurations():
    for name in BENCHES + ("qasm:swap",):
        for mode in MODES:
            for policy in Policy:
                for x_basis in (False, True):
                    yield f"{name}/{mode}/{policy.value}/x{int(x_basis)}", (
                        name, mode, policy, x_basis)


def digest(name: str, mode: str, policy: Policy, x_basis: bool) -> str:
    cfg = replace(MachineConfig(), policy=policy)
    res = run(_source(name), PipelineOptions(mode=mode, x_basis=x_basis), cfg)
    tl = res.timeline
    parts = [f"{e.kind.value} {e.qubits} {e.start_us.hex()} {e.duration_us.hex()}"
             for e in tl.events]
    parts.append(f"makespan {tl.makespan_us.hex()}")
    for label, table in (("t_in", tl.t_in_us), ("t_out", tl.t_out_us)):
        parts += [f"{label} {q} {v.hex()}" for q, v in table.items()]
    parts += [f"transfers {q} {v}" for q, v in tl.transfers.items()]
    parts += [f"{k} {v.hex()}" for k, v in res.breakdown.categories.items()]
    parts.append(f"fidelity {res.fidelity.total.hex()}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _stored() -> dict[str, str]:
    lines = DIGEST_FILE.read_text().splitlines()
    return dict(ln.split() for ln in lines if ln.strip())


CONFIGS = dict(configurations())


def test_digest_file_covers_every_configuration():
    assert set(_stored()) == set(CONFIGS)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_schedule_digest_unchanged(key):
    assert digest(*CONFIGS[key]) == _stored()[key]


if __name__ == "__main__":
    for key, args in CONFIGS.items():
        print(key, digest(*args))
