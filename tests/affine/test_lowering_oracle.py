"""Statement lowering against the DSL round trip it replaced.

``_lower_user`` substitutes a user node's binding into the affine forms
each DSL node derives once.  It used to rebuild the statement as a DSL
tree with the binding converted back into DSL expressions, then convert
every index (and every iterator-only subtree) to affine form again.
That round trip is kept here as the oracle: the printed IR of every
lowered nest must be identical, in both isl modes.
"""

import random

import pytest

from repro import workloads
from repro.affine import lowering
from repro.affine.ir import (
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    CallOp,
    CastOp,
    ConstantOp,
    IndexOp,
)
from repro.affine.printer import print_func
from repro.dse import DseOptions, auto_dse
from repro.dsl.expr import Access, BinaryOp, Call, Cast, Const, IterRef
from repro.dataflow import DataflowDesign
from repro.fuzz.generator import random_schedule
from repro.fuzz.harness import _schedule_target, build_workload
from repro.fuzz.runner import FuzzOptions, plan_trials
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.isl.affine import AffineExpr
from repro.pipeline import lower_to_affine

KERNELS = [n for n in workloads.names(kind="function") if n not in ("vgg16", "resnet18")]


def _to_affine(expr):
    if isinstance(expr, Const):
        if not isinstance(expr.value, int):
            raise ValueError(f"non-integer index constant {expr.value!r}")
        return AffineExpr.const(expr.value)
    if isinstance(expr, IterRef):
        return AffineExpr.var(expr.name)
    if isinstance(expr, BinaryOp):
        if expr.op == "+":
            return _to_affine(expr.lhs) + _to_affine(expr.rhs)
        if expr.op == "-":
            return _to_affine(expr.lhs) - _to_affine(expr.rhs)
        if expr.op == "*":
            lhs, rhs = expr.lhs, expr.rhs
            if isinstance(lhs, Const) and isinstance(lhs.value, int):
                return _to_affine(rhs) * lhs.value
            if isinstance(rhs, Const) and isinstance(rhs.value, int):
                return _to_affine(lhs) * rhs.value
    raise ValueError(f"index expression {expr!r} is not affine")


def _to_iter_expr(expr):
    result = Const(expr.constant)
    if expr.is_constant():
        return result
    terms = []
    for name, coeff in sorted(expr.coeffs.items()):
        term = IterRef(name)
        if coeff != 1:
            term = term * coeff
        terms.append(term)
    combined = terms[0]
    for term in terms[1:]:
        combined = combined + term
    if expr.constant:
        combined = combined + expr.constant
    return combined


def _round_trip_expr(expr):
    if isinstance(expr, Const):
        return ConstantOp(expr.value)
    if isinstance(expr, Access):
        return AffineLoadOp(expr.placeholder, [_to_affine(i) for i in expr.indices])
    if isinstance(expr, IterRef):
        return IndexOp(AffineExpr.var(expr.name))
    if isinstance(expr, BinaryOp):
        try:
            return IndexOp(_to_affine(expr))
        except ValueError:
            return ArithOp(expr.op, _round_trip_expr(expr.lhs), _round_trip_expr(expr.rhs))
    if isinstance(expr, Call):
        return CallOp(expr.func, [_round_trip_expr(a) for a in expr.args])
    if isinstance(expr, Cast):
        return CastOp(expr.dtype, _round_trip_expr(expr.value))
    raise TypeError(f"cannot lower expression {expr!r}")


def _round_trip_user(node):
    stmt = node.payload
    binding = {dim: _to_iter_expr(AffineExpr.var(it)) for dim, it in node.binding.items()}
    body = stmt.body.substitute_iters(binding)
    dest = stmt.dest.substitute_iters(binding)
    indices = [_to_affine(i) for i in dest.indices]
    store = AffineStoreOp(dest.placeholder, indices, _round_trip_expr(body))
    store.attributes["statement"] = stmt.name
    return store


@pytest.fixture(params=[False, True], ids=["fast", "reference"])
def isl_mode(request, monkeypatch):
    monkeypatch.setattr(_intern, "_REFERENCE", request.param)
    _memo.clear_all()
    yield
    _memo.clear_all()


def _assert_same_lowering(function, monkeypatch):
    direct = print_func(lower_to_affine(function, verify=False))
    with monkeypatch.context() as patched:
        patched.setattr(lowering, "_lower_user", _round_trip_user)
        oracle = print_func(lower_to_affine(function, verify=False))
    assert direct == oracle


@pytest.mark.parametrize("name", KERNELS)
def test_swept_kernels_lower_as_the_round_trip(name, isl_mode, monkeypatch):
    """The designs a sweep picks: split, interchanged, skewed, fused."""
    function = workloads.get(name, 19)
    _assert_same_lowering(function, monkeypatch)
    result = auto_dse(function, options=DseOptions(cache=False))
    _assert_same_lowering(result.function, monkeypatch)


def test_fuzzed_schedules_lower_as_the_round_trip(isl_mode, monkeypatch):
    for workload, size, seed, directives in plan_trials(FuzzOptions(seed=0, trials=60)):
        rng = random.Random(seed)
        built = build_workload(workload, size)
        stage = rng.choice(sorted(built.stages)) if isinstance(built, DataflowDesign) else None
        function = _schedule_target(built, stage)
        random_schedule(function, rng, max_directives=directives)
        _assert_same_lowering(function, monkeypatch)


def test_a_renaming_binding_reaches_every_affine_form():
    """Sweeps rarely rename an iterator that a value reads, so the
    binding is driven by hand into indices, folded iterator arithmetic
    and the iterator operands of non-affine arithmetic."""
    from repro.affine.ir import FuncOp
    from repro.dsl import Function, compute, placeholder, var
    from repro.isl.astbuild import UserNode
    from repro.polyir import PolyProgram

    with Function("renamed") as f:
        i, j = var("i", 0, 8), var("j", 0, 8)
        A, B = placeholder("A", (8, 8)), placeholder("B", (9, 8))
        compute("S", [i, j], A(i, j) * (i * 2 + j - 1) + i * j, B(j + 1, i))
    stmt = PolyProgram(f).statement("S")
    binding = {"i": "c1", "j": "i"}
    printed = []
    for lower in (lowering._lower_user, _round_trip_user):
        func = FuncOp("renamed", f.placeholders())
        func.body.append(lower(UserNode("S", stmt, binding)))
        printed.append(print_func(func))
    assert printed[0] == printed[1]
    assert "c1" in printed[0] and "j" not in printed[0].split("{", 1)[1]
