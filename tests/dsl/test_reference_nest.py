"""The generated reference nest against the tree walk it stands in for.

``Compute.reference_execute`` runs one generated Python loop nest per
compute, its safe dims as whole-array grids; ``Compute._execute_level``,
the recursive walk over ``Expr.evaluate``, is kept as its oracle.  The
two are identical by construction -- the nest calls the walk's own
operator table, whose entries pick elementwise on arrays what they pick
per scalar -- and these tests pin it: the same bytes and dtypes on every
registry workload, no per-point walk left, nothing bound but the table,
the walk's own calls wherever the nest stays scalar, the refusals that
keep it scalar, and imports that keep the reference independent of
every layer it judges.
"""

import ast
import importlib
import inspect

import numpy as np
import pytest

from repro import workloads
from repro.dsl import Function, compute, float32, float64, int32, maximum, placeholder, var
from repro.dsl.expr import BinaryOp, Call, Cast, Expr
from repro.workloads import dnn

# ``repro.dsl.compute`` the attribute is the function; the module by name:
nest = importlib.import_module("repro.dsl.compute")


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


def _computes():
    for target in sorted(TARGETS):
        function = TARGETS[target]()
        for stmt in function.computes:
            yield f"{target}.{stmt.name}", stmt


def test_nest_binds_nothing_but_the_table():
    table = list(BinaryOp.OPS.values()) + list(Call.FUNCS.values()) + [nest._grid]
    for label, stmt in _computes():
        namespace = {}
        nest._nest_source(stmt, namespace)
        for name, obj in namespace.items():
            if callable(obj):
                assert any(obj is fn for fn in table) or (
                    getattr(obj, "__func__", None) is Cast.convert
                ), (label, name, obj)


def _count_calls(monkeypatch):
    counts = {}
    for table in (BinaryOp.OPS, Call.FUNCS):
        for key, fn in list(table.items()):
            def wrapper(*args, key=key, fn=fn):
                counts[key] = counts.get(key, 0) + 1
                return fn(*args)

            monkeypatch.setitem(table, key, wrapper)
    return counts


def _scalar_computes():
    """The registry computes the nest keeps scalar, plus the refusals."""
    for name in ("heat-1d", "seidel", "trisolv"):
        yield workloads.get(name, 12)
    yield _refusals()


def test_scalar_fallback_makes_the_walks_calls(monkeypatch):
    counts = _count_calls(monkeypatch)
    for function in _scalar_computes():
        assert not any(nest._grid_iters(stmt) for stmt in function.computes)

        def calls(run):
            counts.clear()
            run(function.computes, function.allocate_arrays(seed=3))
            return dict(counts)

        by_walk = calls(walked)
        assert by_walk
        assert calls(generated) == by_walk, function.name


def _refusals():
    """One compute per rule that keeps a 1-d nest scalar."""
    with Function("refused") as f:
        i = var("i", 0, 9)
        k = var("k", 0, 9)
        A = placeholder("A", (9,), float32)
        B = placeholder("B", (9,), float32)
        P = placeholder("P", (17,), float32)
        D = placeholder("D", (9,), float64)
        N = placeholder("N", (9,), int32)
        M = placeholder("M", (9,), int32)
        # A scalar loop nested inside the only candidate writes P(i + k):
        # cell i + k is written in increasing i, not increasing k.
        compute("hoist", [i, k], P(i + k) + A(i) * B(k) * k, P(i + k))
        compute("integer", [i], N(i) * 7 / 3 + M(i), N(i))
        compute("mixed", [i], A(i) * D(i), B(i))
        compute("cast", [i], Cast(float64, A(i)) * 1.0000001, B(i))
        compute("neighbour", [i], A(i) + A(i - 1), A(i))
        compute("valued", [i], A(i) * i, B(i))
        compute("computed_index", [i], A(i * 1.0), B(i))
        # Per point max(A(i), 1) picks the Python int 1, which ``/``
        # then divides as C integers: 0, where a grid would give 0.5.
        compute("picked_scalar", [i], maximum(A(i), 1) / 2, B(i))
    return f


@pytest.mark.parametrize("name", [c.name for c in _refusals().computes])
def test_refusals_take_the_scalar_path(name):
    function = _refusals()
    stmt = next(c for c in function.computes if c.name == name)
    assert nest._grid_iters(stmt) == set()
    want = function.allocate_arrays(seed=5)
    got = {key: array.copy() for key, array in want.items()}
    with np.errstate(all="ignore"):
        stmt._execute_level(0, {}, want)
        stmt.reference_execute(got)
    _assert_identical(want, got)


def test_grid_statements_keep_the_declared_order():
    # The scalar loop k runs outside the grids, so B(i, j) sums over k in
    # the declared order; i and j become grids, k does not.
    with Function("acc") as f:
        i, j, k = var("i", 0, 7), var("j", 0, 5), var("k", 0, 6)
        A = placeholder("A", (7, 6), float32)
        B = placeholder("B", (7, 5), float32)
        C = placeholder("C", (6, 5), float32)
        stmt = compute("S", [k, i, j], B(i, j) + A(i, k) * C(k, j), B(i, j))
    assert nest._grid_iters(stmt) == {"i", "j"}
    _assert_identical(*_run_both(f))


_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 1e-30, 7.0]


def _same(want, got):
    want, got = np.asarray(want), np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert want[~nan].tobytes() == got[~nan].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "table,key",
    [(BinaryOp.OPS, key) for key in BinaryOp.OPS] + [(Call.FUNCS, key) for key in Call.FUNCS],
)
def test_array_entries_equal_their_scalar_branch(table, key, dtype):
    fn = table[key]
    values = np.array(_EDGES, dtype=dtype)
    with np.errstate(all="ignore"):
        if table is Call.FUNCS and key not in ("min", "max"):
            operands = [values]
        else:
            # Every pair (zero divisors included); min/max also fold three.
            operands = [values[:, None], values[None, :]]
            if table is Call.FUNCS:
                operands.append(values[::-1][:, None])
        grid = np.broadcast_arrays(*operands)
        got = fn(*operands)
        picks = [fn(*(operand[point] for operand in grid)) for point in np.ndindex(grid[0].shape)]
    want = np.array(picks).reshape(grid[0].shape)  # a double pick shows as float64
    assert want.dtype == dtype
    _same(want, np.broadcast_to(got, want.shape))


def test_generator_imports_nothing_it_judges():
    tree = ast.parse(inspect.getsource(nest))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "repro.dsl.expr" in imported
    judged = ("repro.polyir", "repro.isl", "repro.affine")
    assert not [m for m in imported if m.startswith(judged)], imported
