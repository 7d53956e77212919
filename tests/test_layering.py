"""zonec's modules form one import order: each imports only modules before
it, and only at import time. A zonec import inside a function body hides a
back edge (a dependency cycle), so none is allowed. numpy has one home, so
that the compile path never loads it, and so does the garbage-collector
pause."""

import ast
from pathlib import Path

import pytest

import zonec

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


# Every read of an Enum member (``GateKind.H``, ``Zone.STORAGE``, ...) runs
# Python code on CPython 3.11: ``EnumType`` defines ``__getattr__``, which
# routes every class attribute lookup through a Python-level hook (about
# 0.15 us against 0.007 us for a local). So the compile, schedule and cost
# modules read each member once: a function binds the members its loops test
# to locals before the loop, and the per-step helpers, each called once or
# more per zone step, use module constants. A read counts as hot inside a
# loop's body (and a ``while`` test), and anywhere in a comprehension but its
# first iterable, which is evaluated once.
HOT_PATH_MODULES = ("ir", "frontend", "rewrite", "arch", "scheduler", "cost")
ENUMS = {"GateKind", "Zone", "EventKind", "Trap", "Policy"}
PER_STEP_HELPERS = {
    "scheduler": {"_cross", "transfer_batch", "_pick_movers", "_entangling_gates",
                  "_pulse_layers", "_pulse_in_place_layers", "_schedule_readout"},
    "arch": {"crossing_time_us"},
}


def _member_reads(node):
    for n in ast.walk(node):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and isinstance(n.value, ast.Name) and n.value.id in ENUMS):
            yield n


def _repeated_parts(node):
    """The parts of a loop or comprehension ``node`` evaluated once per
    iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        first, *rest = node.generators
        return [node.elt, *first.ifs, *rest]
    if isinstance(node, ast.DictComp):
        first, *rest = node.generators
        return [node.key, node.value, *first.ifs, *rest]
    return []


@pytest.mark.parametrize("stem", HOT_PATH_MODULES)
def test_enum_members_read_outside_loops(stem):
    path = SRC / f"{stem}.py"
    tree = ast.parse(path.read_text())
    functions = [fn for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    helpers = PER_STEP_HELPERS.get(stem, set())
    assert helpers <= {fn.name for fn in functions}, "a per-step helper was renamed"
    hot = set()
    for fn in functions:
        if fn.name in helpers:
            hot.update(n.lineno for n in _member_reads(fn))
        for loop in ast.walk(fn):
            for part in _repeated_parts(loop):
                hot.update(n.lineno for n in _member_reads(part))
    assert not hot, " ".join(f"{path.name}:{line}" for line in sorted(hot))
