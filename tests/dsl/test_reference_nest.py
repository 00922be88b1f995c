"""The generated reference nest against the tree walk it stands in for.

``Compute.reference_execute`` runs one generated Python loop nest per
compute; ``Compute._execute_level``, the recursive walk over
``Expr.evaluate``, is kept as its oracle.  The two are identical by
construction -- the nest calls the walk's own operator table -- and these
tests pin it: the same bytes and dtypes on every registry workload, no
per-point walk left, the same calls into the table, and imports that
keep the reference independent of every layer it judges.
"""

import ast
import importlib
import inspect

import pytest

from repro import workloads
from repro.dsl import Function, compute, float32, float64, int32, placeholder, var
from repro.dsl.expr import BinaryOp, Call, Cast, Expr
from repro.workloads import dnn


def walked(computes, arrays):
    for stmt in computes:
        stmt._execute_level(0, {}, arrays)


def generated(computes, arrays):
    for stmt in computes:
        stmt.reference_execute(arrays)


def _targets():
    """Every registry entry at a size tile factors divide and one nothing
    divides; every dataflow stage likewise.  The DNNs run with 5% of their
    channels: the walk takes ~90 s on the full ``vgg16`` at size 4."""
    table = {}
    for name in workloads.names(kind="function"):
        if name in ("vgg16", "resnet18"):
            factory = getattr(dnn, name)
            for size in (4, 6):
                table[f"{name}@{size}"] = (
                    lambda factory=factory, size=size: factory(size, channel_scale=0.05)
                )
            continue
        for size in (16, 19):
            table[f"{name}@{size}"] = lambda name=name, size=size: workloads.get(name, size)
    for design in workloads.names(kind="dataflow"):
        for stage in workloads.get(design, 16).stages:
            for size in (16, 22):  # conv-block needs an even size
                table[f"{design}.{stage}@{size}"] = (
                    lambda design=design, stage=stage, size=size:
                    workloads.get(design, size).stages[stage].function
                )
    return table


TARGETS = _targets()


def _run_both(function, seed=11):
    want = function.allocate_arrays(seed=seed)
    got = {name: array.copy() for name, array in want.items()}
    walked(function.computes, want)
    generated(function.computes, got)
    return want, got


def _assert_identical(want, got):
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_generated_equals_walk(target):
    _assert_identical(*_run_both(TARGETS[target]()))


def test_mangled_iterators_casts_and_computed_indices():
    # ``in`` and ``lambda`` are DSL iterators but Python keywords; the
    # float index ``i * 1.0`` only works because it is wrapped in int().
    with Function("edge") as f:
        i = var("in", 0, 6)
        j = var("lambda", 1, 5)
        A = placeholder("A", (6, 6), float64)
        B = placeholder("B", (6, 6), float32)
        N = placeholder("N", (6,), int32)
        compute("S", [i, j], Cast(float32, A(i, j) * 1.0000001) * 3 + A(i * 1.0, j - 1), B(i, j))
        compute("T", [i], N(i) * 7 % 5 - Cast(int32, A(i, i)), N(i))
    _assert_identical(*_run_both(f))


def _expr_classes(cls=Expr):
    yield cls
    for sub in cls.__subclasses__():
        yield from _expr_classes(sub)


@pytest.mark.parametrize("name", ["gemm", "jacobi-2d"])
def test_no_per_point_walk_remains(name, monkeypatch):
    function = workloads.get(name, 16)
    want = function.allocate_arrays(seed=11)
    got = {key: array.copy() for key, array in want.items()}
    walked(function.computes, want)

    def refuse(self, env, arrays):
        raise AssertionError(f"Expr.evaluate reached on {self!r}")

    for cls in set(_expr_classes()):
        monkeypatch.setattr(cls, "evaluate", refuse)
    generated(function.computes, got)
    _assert_identical(want, got)


def test_one_semantics_table(monkeypatch):
    counts = {}

    def counted(table, key):
        fn = table[key]

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setitem(table, key, wrapper)

    counted(BinaryOp.OPS, "+")
    counted(Call.FUNCS, "max")
    design = workloads.get("conv-block", 16)  # conv sums, relu and pool take max

    def calls(run):
        counts.update({"+": 0, "max": 0})
        for stage in design.stages.values():
            run(stage.function.computes, stage.function.allocate_arrays(seed=3))
        return dict(counts)

    by_walk = calls(walked)
    assert by_walk["+"] > 0 and by_walk["max"] > 0
    assert calls(generated) == by_walk


def test_generator_imports_nothing_it_judges():
    # ``repro.dsl.compute`` the attribute is the function; the module by name:
    tree = ast.parse(inspect.getsource(importlib.import_module("repro.dsl.compute")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "repro.dsl.expr" in imported
    judged = ("repro.polyir", "repro.isl", "repro.affine")
    assert not [m for m in imported if m.startswith(judged)], imported
