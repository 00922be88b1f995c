"""Unit tests for the DSL expression AST."""

import math

import pytest

from repro.dsl import float32, int32, placeholder, var
from repro.dsl.expr import (
    Access,
    BinaryOp,
    Call,
    Cast,
    Const,
    IterRef,
    maximum,
    minimum,
    to_affine,
    wrap,
)
from repro.isl.affine import AffineExpr


class TestWrap:
    def test_wrap_int(self):
        assert isinstance(wrap(3), Const)

    def test_wrap_float(self):
        assert wrap(2.5).value == 2.5

    def test_wrap_passthrough(self):
        e = IterRef("i")
        assert wrap(e) is e

    def test_wrap_rejects_junk(self):
        with pytest.raises(TypeError):
            wrap("not an expr")


class TestOperators:
    def test_add_builds_tree(self):
        e = IterRef("i") + 1
        assert isinstance(e, BinaryOp)
        assert e.op == "+"

    def test_reflected_ops(self):
        assert (1 + IterRef("i")).op == "+"
        assert (1 - IterRef("i")).op == "-"
        assert (2 * IterRef("i")).op == "*"
        assert (2 / IterRef("i")).op == "/"

    def test_neg_is_zero_minus(self):
        e = -IterRef("i")
        assert e.op == "-"
        assert isinstance(e.lhs, Const) and e.lhs.value == 0

    def test_unsupported_op_rejected(self):
        with pytest.raises(ValueError):
            BinaryOp("^", Const(1), Const(2))


class TestEvaluation:
    def test_arith(self):
        e = (IterRef("i") + 2) * IterRef("j") - 1
        assert e.evaluate({"i": 3, "j": 4}, {}) == 19

    def test_int_division_truncates_toward_zero(self):
        e = BinaryOp("/", Const(-7), Const(2))
        assert e.evaluate({}, {}) == -3  # C semantics, not Python's -4

    def test_int_mod_sign_follows_dividend(self):
        e = BinaryOp("%", Const(-7), Const(2))
        assert e.evaluate({}, {}) == -1

    def test_float_division(self):
        e = BinaryOp("/", Const(7.0), Const(2))
        assert e.evaluate({}, {}) == 3.5

    def test_calls(self):
        assert minimum(IterRef("i"), 5).evaluate({"i": 9}, {}) == 5
        assert maximum(IterRef("i"), 5).evaluate({"i": 9}, {}) == 9
        assert Call("abs", [Const(-3)]).evaluate({}, {}) == 3
        assert Call("sqrt", [Const(9.0)]).evaluate({}, {}) == 3.0
        assert Call("relu", [Const(-2.0)]).evaluate({}, {}) == 0.0
        assert Call("relu", [Const(2.0)]).evaluate({}, {}) == 2.0

    def test_exp_log(self):
        assert math.isclose(Call("exp", [Const(1.0)]).evaluate({}, {}), math.e)
        assert math.isclose(Call("log", [Const(math.e)]).evaluate({}, {}), 1.0)

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError):
            Call("sinh", [Const(1.0)])

    def test_cast(self):
        assert Cast(int32, Const(2.7)).evaluate({}, {}) == 2
        assert Cast(float32, Const(2)).evaluate({}, {}) == 2.0


class TestAccess:
    def test_subscript_and_call_syntax(self):
        A = placeholder("A", (4, 4))
        i, j = var("i", 0, 4), var("j", 0, 4)
        assert isinstance(A[i, j], Access)
        assert isinstance(A(i, j), Access)

    def test_rank_checked(self):
        A = placeholder("A", (4, 4))
        i = var("i", 0, 4)
        with pytest.raises(ValueError):
            A[i]

    def test_evaluate_reads_array(self):
        import numpy as np

        A = placeholder("A", (4,))
        data = {"A": np.arange(4.0)}
        e = A[IterRef("i")] * 2
        assert e.evaluate({"i": 3}, data) == 6.0

    def test_loads_collects_all_accesses(self):
        A = placeholder("A", (4,))
        B = placeholder("B", (4,))
        i = var("i", 0, 4)
        e = A[i] + B[i] * A[i]
        names = [a.array_name for a in e.loads()]
        assert names == ["A", "B", "A"]

    def test_iter_names_in_order(self):
        A = placeholder("A", (4, 4))
        i, j = var("i", 0, 4), var("j", 0, 4)
        assert (A[j, i] + i).iter_names() == ["j", "i"]

    def test_substitute_iters(self):
        A = placeholder("A", (8,))
        i = IterRef("i")
        e = A[i + 1]
        s = e.substitute_iters({"i": IterRef("i0") * 4 + IterRef("i1")})
        import numpy as np

        assert s.evaluate({"i0": 1, "i1": 2}, {"A": np.arange(10.0)}) == 7


class TestToAffine:
    def test_simple_cases(self):
        assert to_affine(IterRef("i")) == AffineExpr.var("i")
        assert to_affine(Const(3)) == AffineExpr.const(3)

    def test_linear_combo(self):
        e = IterRef("i") * 2 + IterRef("j") - 1
        a = to_affine(e)
        assert a == AffineExpr({"i": 2, "j": 1}, -1)

    def test_const_times_iter(self):
        assert to_affine(2 * IterRef("i")) == AffineExpr({"i": 2})

    def test_nonaffine_rejected(self):
        with pytest.raises(ValueError):
            to_affine(IterRef("i") * IterRef("j"))
        with pytest.raises(ValueError):
            to_affine(BinaryOp("/", IterRef("i"), Const(2)))
        with pytest.raises(ValueError):
            to_affine(Const(1.5))
