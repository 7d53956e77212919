"""The compile, schedule and cost entry points pause the cyclic garbage
collector (``ir.paused_gc``). A warm run starts no collection and makes no
cyclic garbage, and every entry point leaves the collector as it found it,
also when it raises."""

import gc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from zonec.arch import LayoutError, MachineConfig, Policy, build_layout
from zonec.cost import breakdown, run
from zonec.frontend import parse_benchmark
from zonec.ir import Circuit, Gate, GateKind, paused_gc
from zonec.rewrite import MODES, PipelineOptions, mantra_pipeline
from zonec.scheduler import schedule

CFG = MachineConfig()
STANDARD = PipelineOptions(mode="standard")


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def collector(request):
    """The collector's state when the call starts: on, or turned off by the
    caller. The state from before the test is restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def compiled():
    spec = parse_benchmark("ucc:6:5")
    program = mantra_pipeline(spec.materialize(), STANDARD)
    layout = build_layout(CFG, program.num_qubits)
    return SimpleNamespace(spec=spec, program=program, layout=layout,
                           timeline=schedule(program, layout, CFG))


def test_paused_gc_turns_the_collector_off_inside(collector):
    assert paused_gc(gc.isenabled)() is False
    assert gc.isenabled() is collector


ENTRY_POINTS = {
    "mantra_pipeline": lambda c: mantra_pipeline(c.spec.materialize(), STANDARD),
    "schedule": lambda c: schedule(c.program, c.layout, CFG),
    "breakdown": lambda c: breakdown(c.timeline),
    "run": lambda c: run(c.spec, STANDARD),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_restores_the_collector(entry, compiled, collector):
    ENTRY_POINTS[entry](compiled)
    assert gc.isenabled() is collector


def _qaoa_sk_3000():
    run(parse_benchmark("qaoa-sk:3000"))


def _schedule_on_another_config():
    program = mantra_pipeline(Circuit(2, (Gate(GateKind.CZ, (0, 1)),)), STANDARD)
    schedule(program, build_layout(replace(CFG, policy=Policy.TYPE2), 2), CFG)


def _gate_after_measure():
    mantra_pipeline(Circuit(1, (Gate(GateKind.MEASURE, (0,)), Gate(GateKind.H, (0,)))))


RAISING = {
    "run": (_qaoa_sk_3000, LayoutError, "capacity exceeded"),
    "schedule": (_schedule_on_another_config, LayoutError, "another machine config"),
    "mantra_pipeline": (_gate_after_measure, ValueError, "after its MEASURE"),
}


@pytest.mark.parametrize("entry", RAISING)
def test_entry_point_restores_the_collector_when_it_raises(entry, collector):
    call, error, message = RAISING[entry]
    with pytest.raises(error, match=message):
        call()
    assert gc.isenabled() is collector


def _collections(fn, *args):
    """``fn(*args)`` and the number of collections that started while it ran,
    after a full collection has emptied the young generations."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = fn(*args)
    finally:
        gc.callbacks.remove(count)
    return result, len(started)


def test_warm_run_starts_no_collection():
    assert gc.isenabled()
    spec = parse_benchmark("ucc:20:20")
    run(spec, STANDARD)  # warm-up
    assert _collections(run, spec, STANDARD)[1] == 0
    assert gc.isenabled()


def test_warm_stages_start_no_collection():
    """The stages one by one, as a caller that times each makes them."""
    assert gc.isenabled()
    spec = parse_benchmark("ucc:20:20")
    run(spec, STANDARD)  # warm-up
    program, compiling = _collections(mantra_pipeline, spec.materialize(), STANDARD)
    timeline, scheduling = _collections(
        schedule, program, build_layout(CFG, program.num_qubits), CFG)
    _, costing = _collections(breakdown, timeline)
    assert (compiling, scheduling, costing) == (0, 0, 0)
    assert gc.isenabled()


# After one warm-up run has done the first-time lazy imports (numpy inside
# the generators leaves cycles), a run makes no cyclic garbage, so pausing the
# collector inside it defers no work.
@pytest.mark.parametrize("x_basis", [False, True], ids=["z", "x"])
@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bench", ["ghz:8", "ucc:6:5", "qaoa-sk:6:1", "qaoa-pl:8:1"])
def test_warm_run_makes_no_cyclic_garbage(bench, mode, policy, x_basis):
    spec = parse_benchmark(bench)
    options = PipelineOptions(mode=mode, x_basis=x_basis)
    cfg = replace(CFG, policy=policy)
    run(spec, options, cfg)  # warm-up
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run(spec, options, cfg)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
