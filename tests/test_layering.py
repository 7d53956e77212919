"""zonec's modules form one import order: each imports only modules before
it, and only at import time. A zonec import inside a function body hides a
back edge (a dependency cycle), so none is allowed; a function-local
``import numpy`` keeps cold start light and stays allowed."""

import ast
from pathlib import Path

import pytest

import zonec

SRC = Path(zonec.__file__).parent

# Rank in the import order; a module may import only modules of lower rank.
# The package's ``__init__`` re-exports from every module and is exempt.
RANK = {
    "ir": 0,
    "protocols": 1,
    "frontend": 1,
    "rewrite": 2,
    "oracle": 2,
    "arch": 3,
    "scheduler": 4,
    "cost": 5,
    "cli": 6,
}
MODULES = sorted(SRC.glob("*.py"))


def _zonec_imports(tree):
    """(node, module name) of every import of a zonec module under ``tree``;
    ``import zonec`` itself counts as importing ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x, from . import x
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((node, name.split(".")[0]) for name in names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for parts in (name.split(".") for name in names):
                if parts[0] == "zonec":
                    yield node, (parts + ["__init__"])[1]


def test_every_module_ranked():
    assert {p.stem for p in MODULES} - {"__init__"} == set(RANK)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_zonec_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    local = {
        f"{path.name}:{node.lineno} imports {name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node, name in _zonec_imports(fn)
    }
    assert not local, sorted(local)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_imports_follow_the_order(path):
    tree = ast.parse(path.read_text())
    later = {
        f"{path.name}:{node.lineno} imports {name}"
        for node, name in _zonec_imports(tree)
        if RANK.get(name, len(RANK)) >= RANK[path.stem]
    }
    assert not later, sorted(later)


# Only arch knows the machine's geometry: the scheduler charges travel through
# arch's distance functions and plans no AOD legs of its own, so a change to
# where atoms sit or how far they travel touches arch alone.
GEOMETRY_FIELDS = {"zone_gap_um", "array_rows", "pitch_entangling_um", "pitch_storage_um"}
AOD_MOVE_HELPERS = {"AodMove", "validate_move", "move_duration_us", "apply_move"}


def test_scheduler_leaves_geometry_to_arch():
    tree = ast.parse((SRC / "scheduler.py").read_text())
    nodes = list(ast.walk(tree))
    imported = {a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    used = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    used |= {n.id for n in nodes if isinstance(n, ast.Name)}
    used |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert "math" not in imported
    assert not {u for u in used if u in GEOMETRY_FIELDS or u.startswith("pitch_")}
    assert not (imported | used) & AOD_MOVE_HELPERS


# Every zone crossing follows ``scheduler._cross``: no other emit or event
# names a crossing's kind, or the table that picks it by destination.
CROSSING_NAMES = {"LOAD", "STORE", "READOUT_MOVE", "_CROSSING"}


def _callee(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Name):
            yield n.id


def test_only_cross_emits_crossings():
    tree = ast.parse((SRC / "scheduler.py").read_text())
    (cross,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_cross"]
    in_cross = {id(n) for n in ast.walk(cross)}
    events = [n for n in ast.walk(tree)
              if isinstance(n, ast.Call) and _callee(n) in ("emit", "Event")]
    assert any(id(call) in in_cross and CROSSING_NAMES & set(_names(call)) for call in events)
    outside = {
        f"scheduler.py:{call.lineno} names {sorted(CROSSING_NAMES & set(_names(call)))}"
        for call in events
        if id(call) not in in_cross and CROSSING_NAMES & set(_names(call))
    }
    assert not outside, sorted(outside)
