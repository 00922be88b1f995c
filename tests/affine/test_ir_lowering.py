"""Unit tests for the affine dialect IR and polyhedral-AST lowering."""

import itertools
import random

import numpy as np
import pytest

from repro.dsl import Function, compute, float64, int32, placeholder, var
from repro.dsl.expr import Call, Cast, IterRef
from repro.isl.affine import AffineExpr
from repro.isl.sets import LoopBound
from repro.affine import (
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    Block,
    CallOp,
    CastOp,
    ConstantOp,
    FuncOp,
    IndexOp,
    lower_expr,
    lower_program,
    print_func,
)
from repro.polyir import lower_function

e = AffineExpr


def lowered_gemm(n=8, schedule=None):
    with Function("gemm") as f:
        i = var("i", 0, n)
        j = var("j", 0, n)
        k = var("k", 0, n)
        A = placeholder("A", (n, n))
        B = placeholder("B", (n, n))
        C = placeholder("C", (n, n))
        s = compute("s", [k, i, j], A(i, j) + B(i, k) * C(k, j), A(i, j))
    if schedule:
        schedule(s, f)
    return f, lower_program(lower_function(f))


class TestIrStructure:
    def test_func_op_arrays(self):
        f, func = lowered_gemm()
        assert [a.name for a in func.arrays] == ["A", "B", "C"]
        assert func.array("B").shape == (8, 8)
        with pytest.raises(KeyError):
            func.array("Z")

    def test_loop_nest_shape(self):
        _, func = lowered_gemm()
        loops = func.loops()
        assert [l.iterator for l in loops] == ["k", "i", "j"]
        assert all(l.constant_trip_count() == 8 for l in loops)

    def test_store_op(self):
        _, func = lowered_gemm()
        (store,) = func.stores()
        assert store.array.name == "A"
        assert store.statement_name() == "s"
        assert isinstance(store.value, ArithOp)

    def test_walk_covers_all_ops(self):
        _, func = lowered_gemm()
        kinds = {type(op).__name__ for op in func.walk()}
        assert {"FuncOp", "AffineForOp", "AffineStoreOp"} <= kinds

    def test_load_rank_checked(self):
        A = placeholder("Arr", (4, 4))
        with pytest.raises(ValueError):
            AffineLoadOp(A, [e.var("i")])
        with pytest.raises(ValueError):
            AffineStoreOp(A, [e.var("i")], ConstantOp(0))

    def test_for_needs_bounds(self):
        with pytest.raises(ValueError):
            AffineForOp("i", [], [LoopBound(e.const(3), 1, False)])

    def test_if_needs_condition(self):
        with pytest.raises(ValueError):
            AffineIfOp([])


class TestMaxTripCount:
    def test_constant(self):
        loop = AffineForOp(
            "i",
            [LoopBound(e.const(0), 1, True)],
            [LoopBound(e.const(7), 1, False)],
        )
        assert loop.max_trip_count({}) == 8

    def test_parametric_envelope(self):
        # i from jp-3 to jp with jp extent 8 -> worst case 0..7+... envelope
        loop = AffineForOp(
            "i",
            [LoopBound(e.var("jp") - 3, 1, True)],
            [LoopBound(e.var("jp"), 1, False)],
        )
        assert loop.max_trip_count({"jp": 8}) >= 4

    def test_divisor_bounds(self):
        loop = AffineForOp(
            "i",
            [LoopBound(e.const(0), 1, True)],
            [LoopBound(e.const(31), 4, False)],  # floor(31/4) = 7
        )
        assert loop.max_trip_count({}) == 8

    def test_constant_bounds_ignore_outer_extents(self):
        loop = AffineForOp(
            "i",
            [LoopBound(e.const(2), 1, True), LoopBound(e.const(5), 2, True)],
            [LoopBound(e.const(15), 1, False)],
        )
        assert loop.max_trip_count({"io": 9}) == loop.constant_trip_count() == 13

    def test_follows_a_replaced_bound_list(self):
        loop = AffineForOp(
            "i",
            [LoopBound(e.const(0), 1, True)],
            [LoopBound(e.const(9), 1, False)],
        )
        assert loop.max_trip_count({}) == 10
        loop.uppers = [LoopBound(e.const(4), 1, False)]
        assert loop.max_trip_count({}) == 5
        loop.lowers = [LoopBound(e.var("io"), 1, True)]
        assert loop.max_trip_count({"io": 3}) == 5

    def test_envelope_covers_every_trip_in_the_box(self):
        """Over random skewed bounds and small outer boxes the envelope is
        at least the largest true trip count, and exactly it when every
        bound is constant.  A dim missing from the extents is pinned at 0."""
        outer = ("io", "jo")
        rng = random.Random(11)

        def bounds(is_lower):
            return [
                LoopBound(
                    AffineExpr(
                        {d: rng.randint(-4, 4) for d in rng.sample(outer, rng.randint(0, 2))},
                        rng.randint(-20, 0) if is_lower else rng.randint(0, 20),
                    ),
                    rng.randint(1, 4),
                    is_lower,
                )
                for _ in range(rng.randint(1, 3))
            ]

        for _ in range(300):
            loop = AffineForOp("i", bounds(True), bounds(False))
            extents = {d: rng.randint(1, 6) for d in rng.sample(outer, rng.randint(0, 2))}
            box = itertools.product(*(range(extents.get(d, 1)) for d in outer))
            true_max = max(
                max(0, min(b.evaluate(p) for b in loop.uppers)
                    - max(b.evaluate(p) for b in loop.lowers) + 1)
                for p in (dict(zip(outer, values)) for values in box)
            )
            envelope = loop.max_trip_count(extents)
            assert envelope >= true_max, (loop.lowers, loop.uppers, extents)
            if loop.constant_trip_count() is not None:
                assert envelope == true_max


class TestExprLowering:
    def test_constant(self):
        assert isinstance(lower_expr(IterRef("i") * 0 + 3), (ConstantOp, IndexOp))

    def test_access_becomes_load(self):
        A = placeholder("AA", (4,))
        op = lower_expr(A[IterRef("i")])
        assert isinstance(op, AffineLoadOp)
        assert op.indices == [e.var("i")]

    def test_iter_arith_folds_to_affine_apply(self):
        op = lower_expr(IterRef("i") * 2 + IterRef("j"))
        assert isinstance(op, IndexOp)
        assert op.expr == e({"i": 2, "j": 1})

    def test_call_and_cast(self):
        A = placeholder("AB", (4,))
        op = lower_expr(Call("max", [A[IterRef("i")], 0.0]))
        assert isinstance(op, CallOp)
        cast = lower_expr(Cast(int32, A[IterRef("i")]))
        assert isinstance(cast, CastOp)
        assert cast.dtype is int32

    def test_nonaffine_mul_stays_arith(self):
        A = placeholder("AC", (4,))
        op = lower_expr(A[IterRef("i")] * A[IterRef("i")])
        assert isinstance(op, ArithOp)
        assert op.kind == "*"


class TestAnnotationsReachIr:
    def test_pipeline_unroll_attributes(self):
        def schedule(s, f):
            s.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1")
            s.pipeline("j0", 2)
            s.unroll("j1", 0)

        _, func = lowered_gemm(schedule=schedule)
        loops = {l.iterator: l for l in func.loops()}
        assert loops["j0"].attributes["pipeline"] == 2
        assert loops["j1"].attributes["unroll"] == 0
        assert "pipeline" not in loops["k"].attributes

    def test_partitions_on_func(self):
        def schedule(s, f):
            for p in f.placeholders():
                p.partition([4, 4], "cyclic")

        _, func = lowered_gemm(schedule=schedule)
        partitions = func.attributes["partitions"]
        assert set(partitions) == {"A", "B", "C"}
        assert partitions["A"].factors == (4, 4)


class TestPrinter:
    def test_prints_structure(self):
        _, func = lowered_gemm()
        text = print_func(func)
        assert "func.func @gemm" in text
        assert "affine.for %k = 0 to 7 + 1" in text
        assert "affine.store" in text
        assert "arith.mulf" in text

    def test_prints_attributes(self):
        def schedule(s, f):
            s.pipeline("j", 1)

        _, func = lowered_gemm(schedule=schedule)
        assert "{pipeline = 1}" in print_func(func)

    def test_prints_guard(self):
        with Function("g") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (4,))
            s1 = compute("s1", [i], A(i) * 2.0, A(i))
        with Function("g2") as f2:
            i2 = var("i", 0, 4)
            B2 = placeholder("B2", (4,))
            s2 = compute("s2", [i2], B2(i2) + 1.0, B2(i2))
        # fuse differently-sized statements to force a guard
        with Function("g3") as f3:
            i = var("i", 0, 8)
            j = var("j", 0, 4)
            A = placeholder("A3", (8,))
            B = placeholder("B3", (4,))
            sa = compute("sa", [i], A(i) * 2.0, A(i))
            sb = compute("sb", [j], B(j) + 1.0, B(j))
        sb.after(sa, "i")
        func = lower_program(lower_function(f3))
        text = print_func(func)
        assert "affine.if" in text


class TestDoublePrecision:
    def test_float64_function_lowers_and_runs(self):
        from repro.affine import interpret

        with Function("d") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,), float64)
            compute("s", [i], A(i) * 2.0 + 1.0, A(i))
        func = lower_program(lower_function(f))
        arrays = {"A": np.ones(4, dtype=np.float64)}
        interpret(func, arrays)
        assert np.allclose(arrays["A"], 3.0)
