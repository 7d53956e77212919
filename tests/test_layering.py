"""zonec's modules form one import order: each imports only modules before
it, and only at import time. A zonec import inside a function body hides a
back edge (a dependency cycle), so none is allowed. numpy has one home, so
that the compile path never loads it, and so does the garbage-collector
pause."""

import ast
import sys
from pathlib import Path

import pytest

import zonec
from zonec.arch import Policy, Trap
from zonec.ir import GateKind, Zone
from zonec.scheduler import EventKind

SRC = Path(zonec.__file__).parent

# Rank in the import order; a module may import only modules of lower rank.
# The package's ``__init__`` re-exports from every module and is exempt.
RANK = {
    "ir": 0,
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


# Only the reference simulator imports numpy at import time; the compile path
# never imports oracle. The seeded generators draw from numpy's random
# streams, so they alone import it, inside the function.
NUMPY_AT_IMPORT = {"oracle"}
NUMPY_IN_FUNCTION = {"frontend": {"gen_ucc_random", "power_law_graph", "qaoa_angles"}}


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_has_one_home(path):
    tree = ast.parse(path.read_text())
    enclosing = {}  # id(import node) -> innermost function around it
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing.update((id(n), fn.name) for n in ast.walk(fn) if n is not fn)
    stray = set()
    for node in ast.walk(tree):
        if not _imports_numpy(node):
            continue
        fn = enclosing.get(id(node))
        if fn is None and path.stem not in NUMPY_AT_IMPORT:
            stray.add(f"{path.name}:{node.lineno} imports numpy at import time")
        elif fn is not None and fn not in NUMPY_IN_FUNCTION.get(path.stem, ()):
            stray.add(f"{path.name}:{node.lineno} imports numpy in {fn}")
    assert not stray, sorted(stray)


# The cyclic collector is paused in one place, ``ir.paused_gc``, which the
# compile, schedule and cost entry points wear as a decorator. No other module
# imports or names ``gc``, so the pause stays one mechanism.
GC_HOME = "ir"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != GC_HOME],
                         ids=lambda p: p.name)
def test_gc_has_one_home(path):
    tree = ast.parse(path.read_text())
    named = {
        f"{path.name}:{n.lineno} names gc"
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == "gc")
        or (isinstance(n, ast.Import) and any(a.name == "gc" for a in n.names))
        or (isinstance(n, ast.ImportFrom) and n.module == "gc")
    }
    assert not named, sorted(named)


# Only arch knows the machine's geometry and how fast atoms move: the scheduler
# charges the travel times arch's functions return, names no length or speed,
# and plans no AOD legs of its own, so a change to where atoms sit, how far
# they travel or how fast touches arch alone.
GEOMETRY_FIELDS = {"zone_gap_um", "array_rows", "pitch_entangling_um", "pitch_storage_um",
                   "aod_speed_um_per_us"}
AOD_MOVE_HELPERS = {"validate_move"}


def test_scheduler_leaves_geometry_to_arch():
    tree = ast.parse((SRC / "scheduler.py").read_text())
    nodes = list(ast.walk(tree))
    imported = {a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    used = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    used |= {n.id for n in nodes if isinstance(n, ast.Name)}
    used |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert "math" not in imported
    assert not {u for u in used | imported
                if u in GEOMETRY_FIELDS or u.startswith("pitch_") or u.endswith("_um")}
    assert not (imported | used) & AOD_MOVE_HELPERS


# Only arch lands a mover: the scheduler never writes a site's row or column,
# neither by assignment nor by keyword.
SITE_COORDS = {"row", "col"}


def test_scheduler_places_no_atom():
    tree = ast.parse((SRC / "scheduler.py").read_text())
    writes = {
        f"scheduler.py:{n.lineno} sets {n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and n.attr in SITE_COORDS
    }
    writes |= {
        f"scheduler.py:{n.value.lineno} passes {n.arg}="
        for n in ast.walk(tree) if isinstance(n, ast.keyword) and n.arg in SITE_COORDS
    }
    assert not writes, sorted(writes)


# Crosstalk is a cost of the pulse events, so cost alone counts it: the
# scheduler records what happened and keeps no tally derived from it.
def test_scheduler_keeps_no_crosstalk_tally():
    assert "xtalk" not in (SRC / "scheduler.py").read_text().lower()


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


# Reading an Enum member as a class attribute (``GateKind.H``) runs Python
# code on CPython 3.11: ``EnumType`` defines ``__getattr__``, which routes
# every class attribute lookup through a Python-level hook. In a 10k-item
# loop an ``x is GateKind.H`` test costs about 189 ns, against 33 ns with a
# module name and 32 ns with a local. So each enum's module binds every
# member to a module name of its own, and no function body in zonec reads a
# member as an attribute; module-level tables, built once at import, may.
ENUM_HOMES = {"ir": (Zone, GateKind), "arch": (Policy, Trap), "scheduler": (EventKind,)}
MEMBER_READS = {(enum.__name__, name) for enums in ENUM_HOMES.values() for enum in enums
                for name in enum.__members__}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_reads_an_enum_member_as_an_attribute(path):
    tree = ast.parse(path.read_text())
    reads = {
        f"{path.name}:{n.lineno} reads {n.value.id}.{n.attr}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for stmt in (fn.body if isinstance(fn.body, list) else [fn.body])
        for n in ast.walk(stmt)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and (n.value.id, n.attr) in MEMBER_READS
    }
    assert not reads, sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_each_enum_module_exports_its_members(path):
    tree = ast.parse(path.read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "Enum" for b in n.bases)}
    enums = ENUM_HOMES.get(path.stem, ())
    assert defined == {enum.__name__ for enum in enums}
    missing = [m.name for enum in enums for m in enum
               if getattr(sys.modules[enum.__module__], m.name, None) is not m]
    assert not missing, missing
