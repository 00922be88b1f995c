"""The interleaved reference nest against the polyhedral route it replaced.

``Function.reference_execute`` interleaves a function's computes under
their structural ``after``/``fuse`` directives as one nest built from
the DSL alone.  Its oracle is the route the reference used to take: a
``PolyProgram`` with only those directives applied, lowered to the
affine dialect and run by the interpreter.  Both must give the same
bytes and dtypes on every registry workload with a structural directive,
every dataflow stage, every structural trial of the seed-0 fuzz
campaign and a few hand-made interleavings, and fail alike where the
AST builder refuses one.  The oracle goes through isl, so CI also runs
this file with ``REPRO_ISL_REFERENCE=1``.
"""

import numpy as np
import pytest

from repro import workloads
from repro.affine.interp import interpret
from repro.affine.lowering import lower_program
from repro.dsl import Function, compute, float32, placeholder, var
from repro.fuzz.harness import _schedule_target, draw_schedule
from repro.fuzz.runner import FuzzOptions, plan_trials
from repro.polyir.program import PolyProgram


def polyhedral(function, arrays):
    program = PolyProgram(function)
    for directive in function.structural_directives():
        program.apply_directive(directive)
    interpret(lower_program(program), arrays)


def _assert_same(function, seed=11):
    want = function.allocate_arrays(seed=seed)
    got = {name: array.copy() for name, array in want.items()}
    polyhedral(function, want)
    function.reference_execute(got)
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, (function.name, name)
        assert got[name].tobytes() == want[name].tobytes(), (function.name, name)


STRUCTURAL = ["jacobi-1d", "jacobi-2d"]


def test_the_registry_structural_workloads_are_the_listed_ones():
    found = [
        name for name in workloads.names(kind="function")
        if workloads.get(name, 2 if name in ("vgg16", "resnet18") else 8).structural_directives()
    ]
    assert found == STRUCTURAL


@pytest.mark.parametrize("size", [8, 16, 24])
@pytest.mark.parametrize("name", STRUCTURAL)
def test_registry_structural_workloads(name, size):
    _assert_same(workloads.get(name, size))


@pytest.mark.parametrize("design", workloads.names(kind="dataflow"))
def test_every_dataflow_stage(design):
    for stage in workloads.get(design, 16).stages.values():
        _assert_same(stage.function)


def test_every_structural_trial_of_the_seed0_campaign():
    structural = 0
    for workload, size, seed, max_directives in plan_trials(FuzzOptions(seed=0, trials=200)):
        built, schedule = draw_schedule(workload, size, seed, max_directives)
        target = _schedule_target(built, schedule.get("stage"))
        if target.structural_directives():
            structural += 1
            _assert_same(target, seed)
    assert structural >= 10


def _interleavings():
    """Fused loops whose ranges differ (a hull with guards), a compute
    shallower than its partner, a reordering ``after`` with no level, a
    three-statement chain and statements sharing every loop."""
    with Function("mixed") as f:
        i, j = var("i", 0, 6), var("j", 1, 5)
        p, q = var("p", 2, 8), var("q", 0, 3)
        A = placeholder("A", (9, 9), float32)
        B = placeholder("B", (9, 9), float32)
        C = placeholder("C", (9,), float32)
        s1 = compute("S1", [i, j], A(i, j) + B(j, i) * 0.5, A(i, j))
        s2 = compute("S2", [p, q], B(p, q) - A(p, q + 1), B(p, q))
        s3 = compute("S3", [p], C(p) + A(p, p), C(p))
        s4 = compute("S4", [i], C(i) * 2.0 + B(i, 0), C(i))
    s2.after(s1, "i")
    s3.fuse(s2, "p")
    s4.after(s3, None)
    yield f
    with Function("deep") as g:
        i, j, k = var("i", 0, 5), var("j", 0, 4), var("k", 1, 6)
        A = placeholder("A", (8, 8), float32)
        B = placeholder("B", (8, 8), float32)
        t1 = compute("T1", [i, j, k], A(i, j) + B(j, k), A(i, j))
        t2 = compute("T2", [i, k, j], B(i, j) * A(k, j), B(i, j))
        t3 = compute("T3", [j, i], A(j, i) - B(i, j), A(j, i))
    t2.fuse(t1, "j")
    t3.after(t2, "i")
    t1.after(t3, None)
    yield g
    with Function("points") as h:
        i, j = var("i", 0, 5), var("j", 0, 4)
        A = placeholder("A", (5, 4), float32)
        B = placeholder("B", (5, 4), float32)
        z = compute("Z", [i, j], A(i, j) * 3.0 - B(i, j), A(i, j))
        x = compute("X", [i, j], A(i, j) + 1.0, A(i, j))
        y = compute("Y", [i, j], B(i, j) + A(i, j) * 0.5, B(i, j))
    # Y and Z tie after X at the innermost level: declaration order.
    y.after(x, "j")
    z.after(x, "j")
    yield h


@pytest.mark.parametrize("function", list(_interleavings()), ids=lambda f: f.name)
def test_hand_made_interleavings(function):
    _assert_same(function)


def test_a_level_mixing_loops_and_leaves_fails_alike():
    # S3 (one loop) and S2 (two) both land on static 1 under S1's i: the
    # builder cannot put a loop and a leaf at one static position.
    with Function("clash") as f:
        i, j = var("i", 0, 4), var("j", 0, 4)
        A = placeholder("A", (4, 4), float32)
        B = placeholder("B", (4, 4), float32)
        C = placeholder("C", (4,), float32)
        s1 = compute("S1", [i, j], A(i, j) + 1.0, A(i, j))
        s2 = compute("S2", [i, j], B(i, j) + A(i, j), B(i, j))
        s3 = compute("S3", [i], C(i) + A(i, 0), C(i))
    s2.after(s1, "i")
    s3.after(s1, "i")
    arrays = f.allocate_arrays(seed=1)
    with pytest.raises(ValueError, match="must be single dims"):
        polyhedral(f, {name: array.copy() for name, array in arrays.items()})
    with pytest.raises(ValueError, match="must be single dims"):
        f.reference_execute(arrays)
    # The refusal comes while the nest is built, before any store.
    fresh = f.allocate_arrays(seed=1)
    assert all(np.array_equal(arrays[name], fresh[name]) for name in fresh)
