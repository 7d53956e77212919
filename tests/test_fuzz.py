"""Every text reader on bounded, mostly malformed input: a reader either
returns or raises one of the input errors the CLI maps to exit 2, never
anything else (no IndexError, KeyError, TypeError, RecursionError, ...)."""

import os
import tempfile
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from zonec.arch import ConfigError, MachineConfig, load_config
from zonec.frontend import ParseError, parse_benchmark, parse_pauli_file, parse_qasm
from zonec.ir import CircuitError

INPUT_ERRORS = (ParseError, CircuitError, ConfigError, ValueError)


def _texts(tokens, max_size=40):
    """Bounded text: a mix of the format's own tokens and arbitrary short
    strings (surrogates excluded, so every text can be written to a file)."""
    junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    return st.lists(st.one_of(st.sampled_from(tokens), junk), max_size=max_size).map("".join)


_QASM_TOKENS = [
    "OPENQASM 2.0;", "OPENQASM", "2.0", 'include "qelib1.inc";', "include", "qreg q[3];",
    "creg c[3];", "qreg", "creg", "barrier", "measure", "->", "h", "x", "rx", "rz", "cx",
    "cz", "swap", "rzz", "q", "c", "[", "]", "(", ")", ",", ";", "\n", " ", "//", "0", "1",
    "2", "7", "pi", "*", "/", "+", "-", "**", "1e999", ".", "e", "((((", "q[0]", "q[1]",
    "c[0]",
]
_PAULI_TOKENS = [
    "qubits", "qubits 2", "qubits 3", " ", "\n", "#", "X", "Y", "Z", "I", "XZ", "IYZ",
    "0.5", "-1.25", "nan", "inf", "1e999", "0", "-", ".", "e",
]
_BENCH_TOKENS = [
    "ghz", "ucc", "qaoa-sk", "qaoa-pl", "po", ":", "0", "1", "4", "-1", "x", "path",
    "fountain", "parallel", "99999999999", " ", "1.5",
]
_CONFIG_TOKENS = [f.name for f in fields(MachineConfig)] + [
    " = ", "=", ":", " ", "\n", "#", "0", "1", "0.5", "-1", "1e999", "nan", "inf",
    "type1", "type2", "TYPE3", "type9", "true", "x",
]


@given(_texts(_QASM_TOKENS))
@settings(max_examples=300, deadline=None)
def test_parse_qasm_raises_only_input_errors(text):
    try:
        parse_qasm(text)
    except INPUT_ERRORS:
        pass


@given(_texts(_QASM_TOKENS, max_size=20))
@settings(max_examples=200, deadline=None)
def test_parse_qasm_after_a_valid_header(text):
    try:
        parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n" + text)
    except INPUT_ERRORS:
        pass


@given(_texts(_PAULI_TOKENS))
@settings(max_examples=300, deadline=None)
def test_parse_pauli_file_raises_only_input_errors(text):
    try:
        parse_pauli_file(text)
    except INPUT_ERRORS:
        pass


@given(_texts(_BENCH_TOKENS, max_size=8), st.integers(-5, 2**31))
@settings(max_examples=300, deadline=None)
def test_parse_benchmark_raises_only_input_errors(text, seed):
    try:
        parse_benchmark(text, seed=seed)
    except INPUT_ERRORS:
        pass


@given(_texts(_CONFIG_TOKENS))
@settings(max_examples=300, deadline=None)
def test_load_config_raises_only_input_errors(text):
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            load_config(path)
        except INPUT_ERRORS:
            pass
    finally:
        os.unlink(path)
