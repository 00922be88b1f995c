"""Unit tests for affine constraints and their normalization."""

import pytest

from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, GE, Constraint


class TestConstructors:
    def test_eq(self):
        c = Constraint.eq("i", 5)
        assert c.kind == EQ
        assert c.expr == AffineExpr.var("i") - 5

    def test_ge(self):
        c = Constraint.ge("i", 0)
        assert c.kind == GE
        assert c.satisfied_by({"i": 0})
        assert not c.satisfied_by({"i": -1})

    def test_le(self):
        c = Constraint.le("i", 3)
        assert c.satisfied_by({"i": 3})
        assert not c.satisfied_by({"i": 4})

    def test_lt_is_integer_strict(self):
        c = Constraint.lt("i", 3)
        assert c.satisfied_by({"i": 2})
        assert not c.satisfied_by({"i": 3})

    def test_gt_is_integer_strict(self):
        c = Constraint.gt("i", 3)
        assert c.satisfied_by({"i": 4})
        assert not c.satisfied_by({"i": 3})

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Constraint(AffineExpr.var("i"), "<")


class TestNormalization:
    def test_gcd_divided_out_equality(self):
        c = Constraint.eq(AffineExpr({"i": 4}), 8)
        assert c.expr == AffineExpr({"i": 1}, -2)

    def test_inequality_constant_tightened(self):
        # 2i - 3 >= 0 over the integers means i >= 2, i.e. i - 2 >= 0.
        c = Constraint(AffineExpr({"i": 2}, -3), GE)
        assert c.expr == AffineExpr({"i": 1}, -2)

    def test_tightening_preserves_integer_points(self):
        c = Constraint(AffineExpr({"i": 3}, -4), GE)  # 3i >= 4 -> i >= 2
        for i in range(-5, 6):
            assert c.satisfied_by({"i": i}) == (3 * i - 4 >= 0)

    def test_unit_coeff_unchanged(self):
        c = Constraint(AffineExpr({"i": 1}, -3), GE)
        assert c.expr == AffineExpr({"i": 1}, -3)


class TestClassification:
    def test_tautology_ge(self):
        assert Constraint.ge(5, 0).is_tautology()
        assert not Constraint.ge(-1, 0).is_tautology()

    def test_tautology_eq(self):
        assert Constraint.eq(0, 0).is_tautology()

    def test_contradiction_constant(self):
        assert Constraint.ge(-1, 0).is_contradiction()
        assert Constraint.eq(1, 0).is_contradiction()

    def test_contradiction_gcd_test(self):
        # 2i == 1 has no integer solution.
        c = Constraint(AffineExpr({"i": 2}, -1), EQ)
        assert c.is_contradiction()

    def test_feasible_equality_not_contradiction(self):
        c = Constraint(AffineExpr({"i": 2}, -4), EQ)
        assert not c.is_contradiction()

    def test_involves(self):
        c = Constraint.ge(AffineExpr.var("i") + AffineExpr.var("j"), 0)
        assert c.involves("i")
        assert not c.involves("k")


class TestTransforms:
    def test_substitute(self):
        c = Constraint.ge("i", 2)
        s = c.substitute({"i": AffineExpr.var("x") + AffineExpr.var("y")})
        assert s.satisfied_by({"x": 1, "y": 1})
        assert not s.satisfied_by({"x": 0, "y": 1})

    def test_equality_and_hash(self):
        a = Constraint.ge(AffineExpr.var("i"), 3)
        b = Constraint.ge(AffineExpr.var("i") - 3, 0)
        assert a == b
        assert hash(a) == hash(b)

    def test_eq_vs_ge_differ(self):
        assert Constraint.eq("i", 0) != Constraint.ge("i", 0)
