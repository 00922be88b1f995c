"""Unit tests for affine expressions."""

import pytest

from repro.isl.affine import AffineExpr


class TestConstruction:
    def test_var(self):
        i = AffineExpr.var("i")
        assert i.coeff("i") == 1
        assert i.constant == 0

    def test_const(self):
        c = AffineExpr.const(7)
        assert c.is_constant()
        assert c.constant == 7

    def test_zero_coeffs_dropped(self):
        e = AffineExpr({"i": 0, "j": 2})
        assert e.dims() == ("j",)

    def test_coerce_int(self):
        assert AffineExpr.coerce(5) == AffineExpr.const(5)

    def test_coerce_str(self):
        assert AffineExpr.coerce("k") == AffineExpr.var("k")

    def test_coerce_passthrough(self):
        e = AffineExpr.var("i")
        assert AffineExpr.coerce(e) is e

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            AffineExpr.coerce(1.5)

    def test_non_int_coeff_rejected(self):
        with pytest.raises(TypeError):
            AffineExpr({"i": 1.5})

    def test_non_int_const_rejected(self):
        with pytest.raises(TypeError):
            AffineExpr({}, 0.5)


class TestArithmetic:
    def test_add(self):
        e = AffineExpr.var("i") + AffineExpr.var("j") + 3
        assert e.coeff("i") == 1
        assert e.coeff("j") == 1
        assert e.constant == 3

    def test_add_cancels(self):
        e = AffineExpr.var("i") - AffineExpr.var("i")
        assert e.is_zero()

    def test_radd(self):
        e = 2 + AffineExpr.var("i")
        assert e.constant == 2

    def test_sub(self):
        e = AffineExpr.var("i") - 4
        assert e.constant == -4

    def test_rsub(self):
        e = 10 - AffineExpr.var("i")
        assert e.coeff("i") == -1
        assert e.constant == 10

    def test_neg(self):
        e = -(AffineExpr.var("i") * 2 + 3)
        assert e.coeff("i") == -2
        assert e.constant == -3

    def test_mul(self):
        e = (AffineExpr.var("i") + 1) * 3
        assert e.coeff("i") == 3
        assert e.constant == 3

    def test_rmul(self):
        e = 4 * AffineExpr.var("i")
        assert e.coeff("i") == 4

    def test_exact_floordiv(self):
        e = (AffineExpr.var("i") * 4 + 8) // 4
        assert e.coeff("i") == 1
        assert e.constant == 2

    def test_inexact_floordiv_raises(self):
        with pytest.raises(ValueError):
            (AffineExpr.var("i") * 3) // 2

    def test_floordiv_zero_raises(self):
        with pytest.raises(ValueError):
            AffineExpr.var("i") // 0


class TestSubstitution:
    def test_substitute_dim_with_expr(self):
        # i -> 4*i0 + i1
        e = AffineExpr.var("i") * 2 + 1
        s = e.substitute({"i": AffineExpr.var("i0") * 4 + AffineExpr.var("i1")})
        assert s.coeff("i0") == 8
        assert s.coeff("i1") == 2
        assert s.constant == 1

    def test_substitute_keeps_unbound(self):
        e = AffineExpr.var("i") + AffineExpr.var("j")
        s = e.substitute({"i": 5})
        assert s.coeff("j") == 1
        assert s.constant == 5

    def test_rename(self):
        e = AffineExpr.var("i") + AffineExpr.var("j") * 2
        r = e.rename({"i": "x"})
        assert r.coeff("x") == 1
        assert r.coeff("j") == 2

    def test_rename_sums_merged_coefficients(self):
        i, j = AffineExpr.var("i"), AffineExpr.var("j")
        e = i + j * 2
        assert e.rename({"i": "j"}) == j * 3 == e.substitute({"i": j})
        assert (i - j).rename({"i": "j"}).is_zero()

    def test_rename_swaps_and_identity(self):
        e = AffineExpr.var("i") + AffineExpr.var("j") * 2 + 1
        assert e.rename({"i": "j", "j": "i"}) == AffineExpr({"j": 1, "i": 2}, 1)
        assert e.rename({"i": "i", "k": "x"}) is e

    def test_evaluate(self):
        e = AffineExpr.var("i") * 3 - AffineExpr.var("j") + 2
        assert e.evaluate({"i": 4, "j": 5}) == 9

    def test_evaluate_unbound_raises(self):
        with pytest.raises(KeyError):
            AffineExpr.var("i").evaluate({})


class TestQueries:
    def test_is_single_dim(self):
        assert AffineExpr.var("i").is_single_dim()
        assert not (AffineExpr.var("i") * 2).is_single_dim()
        assert not (AffineExpr.var("i") + 1).is_single_dim()
        assert not AffineExpr.const(0).is_single_dim()

    def test_single_dim_value(self):
        assert AffineExpr.var("q").single_dim() == "q"

    def test_single_dim_raises(self):
        with pytest.raises(ValueError):
            AffineExpr.const(3).single_dim()

    def test_content(self):
        e = AffineExpr({"i": 4, "j": 6}, 8)
        assert e.content() == 2

    def test_coeff_gcd_ignores_const(self):
        e = AffineExpr({"i": 4, "j": 6}, 3)
        assert e.coeff_gcd() == 2

    def test_dims_sorted(self):
        e = AffineExpr({"z": 1, "a": 1, "m": 1})
        assert e.dims() == ("a", "m", "z")


class TestEqualityHash:
    def test_equal_exprs_hash_equal(self):
        a = AffineExpr.var("i") + 2
        b = AffineExpr({"i": 1}, 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal(self):
        assert AffineExpr.var("i") != AffineExpr.var("j")

    def test_str_roundtrip_stable(self):
        e = AffineExpr({"i": -2, "j": 1}, -3)
        assert str(e) == "-2*i + j - 3"
