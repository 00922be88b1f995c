"""Unit tests for basic integer sets and Fourier-Motzkin projection."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, GE, Constraint
from repro.isl.sets import BasicSet, LoopBound
from tests.isl.oracle import prune_parallel, row_eliminate

e = AffineExpr


class TestConstruction:
    def test_box(self):
        s = BasicSet.box({"i": (0, 3), "j": (1, 2)})
        assert s.contains({"i": 0, "j": 1})
        assert s.contains({"i": 3, "j": 2})
        assert not s.contains({"i": 4, "j": 1})
        assert not s.contains({"i": 0, "j": 0})

    def test_universe(self):
        s = BasicSet.universe(["i"])
        assert s.contains({"i": 10 ** 9})

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            BasicSet(["i", "i"])

    def test_unknown_dim_in_constraint_rejected(self):
        with pytest.raises(ValueError):
            BasicSet(["i"], [Constraint.ge("j", 0)])

    def test_tautologies_dropped(self):
        s = BasicSet(["i"], [Constraint.ge(1, 0)])
        assert len(s.constraints) == 0

    def test_duplicate_constraints_dropped(self):
        s = BasicSet(["i"], [Constraint.ge("i", 0), Constraint.ge("i", 0)])
        assert len(s.constraints) == 1


class TestOperations:
    def test_intersect(self):
        a = BasicSet.box({"i": (0, 10)})
        b = BasicSet.box({"i": (5, 20)})
        both = a.intersect(b)
        assert both.contains({"i": 7})
        assert not both.contains({"i": 3})
        assert not both.contains({"i": 12})

    def test_intersect_dim_mismatch(self):
        with pytest.raises(ValueError):
            BasicSet.box({"i": (0, 1)}).intersect(BasicSet.box({"j": (0, 1)}))

    def test_rename_dims(self):
        s = BasicSet.box({"i": (0, 3)}).rename_dims({"i": "x"})
        assert s.dims == ("x",)
        assert s.contains({"x": 2})

    def test_reorder_dims(self):
        s = BasicSet.box({"i": (0, 1), "j": (0, 2)}, order=["i", "j"])
        r = s.reorder_dims(["j", "i"])
        assert r.dims == ("j", "i")
        assert r.contains({"i": 1, "j": 2})

    def test_reorder_rejects_non_permutation(self):
        s = BasicSet.box({"i": (0, 1)})
        with pytest.raises(ValueError):
            s.reorder_dims(["i", "j"])

    def test_substitute_dim_split(self):
        # i in [0,31], i = 4*i0 + i1, 0 <= i1 <= 3
        s = BasicSet.box({"i": (0, 31)})
        t = s.substitute_dim(
            "i", e.var("i0") * 4 + e.var("i1"), ["i0", "i1"],
            extra=[Constraint.ge("i1", 0), Constraint.le("i1", 3)],
        )
        assert t.count_points() == 32
        lo, hi = t.constant_bounds("i0")
        assert (lo, hi) == (0, 7)

    def test_substitute_dim_skew(self):
        # j' = i + j over the 4x4 box; points preserved.
        s = BasicSet.box({"i": (0, 3), "j": (0, 3)})
        t = s.substitute_dim("j", e.var("jp") - e.var("i"), ["i", "jp"])
        assert t.count_points() == 16
        lo, hi = t.constant_bounds("jp")
        assert (lo, hi) == (0, 6)

    def test_add_dims(self):
        s = BasicSet.box({"i": (0, 1)}).add_dims(["k"])
        assert s.dims == ("i", "k")
        assert s.contains({"i": 0, "k": 99})


class TestProjection:
    def test_drop_dim_simple(self):
        s = BasicSet.box({"i": (0, 3), "j": (0, 5)})
        p = s.drop_dim("j")
        assert p.dims == ("i",)
        assert p.constant_bounds("i") == (0, 3)

    def test_drop_dim_coupled(self):
        # i + j <= 5, 0 <= i, 0 <= j  -> projecting j gives 0 <= i <= 5
        s = BasicSet(
            ["i", "j"],
            [Constraint.ge("i", 0), Constraint.ge("j", 0),
             Constraint.le(e.var("i") + e.var("j"), 5)],
        )
        p = s.drop_dim("j")
        assert p.constant_bounds("i") == (0, 5)

    def test_projection_matches_enumeration(self):
        s = BasicSet(
            ["i", "j"],
            [Constraint.ge("i", 0), Constraint.le("i", 6),
             Constraint.ge("j", e.var("i")), Constraint.le("j", 8)],
        )
        projected = s.drop_dim("j")
        shadow = {p["i"] for p in s.points()}
        for i in range(-2, 10):
            assert projected.contains({"i": i}) == (i in shadow)

    def test_project_onto(self):
        s = BasicSet.box({"i": (0, 3), "j": (0, 4), "k": (0, 5)})
        p = s.project_onto(["k", "i"])
        assert p.dims == ("k", "i")
        assert p.count_points() == 24

    def test_equality_substitution_in_elimination(self):
        # j == i + 1, 0 <= i <= 3, j <= 3 -> i <= 2
        s = BasicSet(
            ["i", "j"],
            [Constraint.eq("j", e.var("i") + 1), Constraint.ge("i", 0),
             Constraint.le("i", 3), Constraint.le("j", 3)],
        )
        p = s.drop_dim("j")
        assert p.constant_bounds("i") == (0, 2)



class TestEliminate:
    """``sets._eliminate``: one Fourier-Motzkin step (on rows, read back)."""

    def test_unit_equality_is_substituted(self):
        # k == 2i - 1 turns 3k + j + 7 >= 0 into 6i + j + 4 >= 0.
        cons = [
            Constraint.eq(e({"k": 1, "i": -2}, 1)),
            Constraint.ge(e({"k": 3, "j": 1}, 7)),
            Constraint.ge("i", 0),
        ]
        assert row_eliminate(cons, "k") == [
            Constraint.ge(e({"i": 6, "j": 1}, 4)),
            Constraint.ge("i", 0),
        ]

    def test_absent_dim_dedupes_and_prunes(self):
        cons = [Constraint.ge("i", 0)] * 3 + [Constraint.le("i", 7), Constraint.le("i", 5)]
        assert row_eliminate(cons, "k") == [Constraint.ge("i", 0), Constraint.le("i", 5)]

    def test_contradictions_all_survive(self):
        # 0 <= k, 1 <= 2k, k <= -3, 2k <= -9: every pair proves emptiness.
        cons = [
            Constraint.ge(e({"k": 1}, 0)),
            Constraint.ge(e({"k": -1}, -3)),
            Constraint.ge(e({"k": 2}, -1)),
            Constraint.ge(e({"k": -2}, -9)),
        ]
        result = row_eliminate(cons, "k")
        assert result and all(c.is_contradiction() for c in result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_rows_in_the_same_order_as_pruning_every_pair(self, seed):
        """The step keeps only the tightest of each parallel family before
        building constraints; that must be invisible: the result equals
        combining every pair into a constraint, deduping and pruning."""

        def every_pair(cons, name):
            lowers = [c for c in cons if c.expr.coeff(name) > 0 or c.kind == EQ and c.expr.coeff(name)]
            uppers = [c for c in cons if c.expr.coeff(name) < 0 or c.kind == EQ and c.expr.coeff(name)]
            rows = [c for c in cons if not c.expr.coeff(name)]
            for lo in lowers:
                lo_expr = lo.expr if lo.expr.coeff(name) > 0 else -lo.expr
                for up in uppers:
                    up_expr = up.expr if up.expr.coeff(name) < 0 else -up.expr
                    a, b = lo_expr.coeff(name), -up_expr.coeff(name)
                    row = Constraint(lo_expr * b + up_expr * a, GE)
                    if not row.is_tautology():
                        rows.append(row)
            return prune_parallel(list(dict.fromkeys(rows)))

        rng = random.Random(seed)
        dims = ("i", "j", "k", "l")
        for _ in range(60):
            cons = []
            for _ in range(rng.randint(1, 40)):
                coeffs = {d: rng.randint(-6, 6) for d in rng.sample(dims, rng.randint(1, 4))}
                kind = EQ if rng.random() < 0.1 else GE
                cons.append(Constraint(e(coeffs, rng.randint(-40, 40)), kind))
            cons += [Constraint.ge(-rng.randint(1, 3), 0)] * rng.randint(0, 2)
            name = rng.choice(dims)
            if any(c.kind == EQ and abs(c.expr.coeff(name)) == 1 for c in cons):
                continue  # substituted, not paired
            assert row_eliminate(cons, name) == every_pair(cons, name), (cons, name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unit_steps_give_the_exact_shadow(self, seed):
        """With unit coefficients on the eliminated dim, the integer
        points of the result are exactly the shadow of the system's."""
        rng = random.Random(seed)
        dims = ("i", "j", "k", "l")
        window = range(-3, 4)
        for _ in range(25):
            name = rng.choice(dims)
            rest = [d for d in dims if d != name]
            cons = [Constraint.ge(d, -3) for d in dims] + [Constraint.le(d, 3) for d in dims]
            for _ in range(rng.randint(1, 60)):
                coeffs = {d: rng.randint(-3, 3) for d in rest}
                coeffs[name] = rng.choice((-1, 0, 1))
                kind = EQ if rng.random() < 0.1 else GE
                cons.append(Constraint(e(coeffs, rng.randint(-6, 6)), kind))
            rng.shuffle(cons)
            shadow = set()
            for values in itertools.product(window, repeat=4):
                point = dict(zip(dims, values))
                if all(c.satisfied_by(point) for c in cons):
                    shadow.add(tuple(point[d] for d in rest))
            result = row_eliminate(cons, name)
            projected = {
                values
                for values in itertools.product(window, repeat=3)
                if all(c.satisfied_by(dict(zip(rest, values))) for c in result)
            }
            assert projected == shadow, (cons, name)

    def test_pairing_past_the_bound_raises_isl001(self, monkeypatch):
        """A step whose lower x upper bound pairing exceeds MAX_FM_PAIRS
        is refused before any pair is combined."""
        from repro.isl import constraint as _constraint

        cons = []
        for d in ("i", "j", "k"):
            cons += [Constraint.ge(d, 0), Constraint.le(d, 63)]
        for t in range(12):
            cons.append(Constraint.ge(e({"k": 1, "i": -1}, 8 * t)))
            cons.append(Constraint.ge(e({"k": -1, "j": 1}, 8 * t + 7)))
            cons.append(Constraint.ge(e({"k": 2, "i": 1, "j": -1}, 3 * t + 1)))
        # k has 1 + 12 + 12 = 25 lower and 1 + 12 = 13 upper bounds.
        monkeypatch.setattr(_constraint, "MAX_FM_PAIRS", 25 * 13 - 1)
        with pytest.raises(_constraint.EliminationBlowup) as info:
            row_eliminate(list(cons), "k")
        assert info.value.code == "ISL001"
        monkeypatch.setattr(_constraint, "MAX_FM_PAIRS", 25 * 13)
        projected = row_eliminate(list(cons), "k")
        assert projected and not any(c.involves("k") for c in projected)


class TestEmptiness:
    def test_nonempty_box(self):
        assert not BasicSet.box({"i": (0, 0)}).is_empty()

    def test_empty_box(self):
        assert BasicSet.box({"i": (3, 1)}).is_empty()

    def test_empty_by_coupling(self):
        s = BasicSet(
            ["i", "j"],
            [Constraint.ge("i", 0), Constraint.le("i", 3),
             Constraint.ge("j", e.var("i") + 10), Constraint.le("j", 5)],
        )
        assert s.is_empty()

    def test_empty_by_gcd(self):
        # 2i == 1: rationally feasible, integrally empty.
        s = BasicSet(["i"], [Constraint.eq(e.var("i") * 2, 1)])
        assert s.is_empty()

    def test_tight_single_point(self):
        s = BasicSet.box({"i": (5, 5)})
        assert not s.is_empty()
        assert s.count_points() == 1

    def test_unbounded_nonempty(self):
        assert not BasicSet(["i"], [Constraint.ge("i", 0)]).is_empty()


class TestBounds:
    def test_dim_bounds_constant(self):
        s = BasicSet.box({"i": (2, 9)})
        lowers, uppers = s.dim_bounds("i")
        assert [b.evaluate({}) for b in lowers] == [2]
        assert [b.evaluate({}) for b in uppers] == [9]

    def test_dim_bounds_parametric(self):
        # i <= j <= 7 with context i
        s = BasicSet(
            ["i", "j"],
            [Constraint.ge("j", e.var("i")), Constraint.le("j", 7),
             Constraint.ge("i", 0), Constraint.le("i", 7)],
        )
        lowers, uppers = s.dim_bounds("j", context=["i"])
        lower_exprs = {(b.expr, b.divisor) for b in lowers}
        assert (e.var("i"), 1) in lower_exprs

    def test_dim_bounds_with_divisor(self):
        # 3*i >= j, i <= 5 -> lower bound ceil(j/3)
        s = BasicSet(
            ["j", "i"],
            [Constraint.ge(e.var("i") * 3, e.var("j")), Constraint.le("i", 5)],
        )
        lowers, _ = s.dim_bounds("i", context=["j"])
        assert any(b.divisor == 3 for b in lowers)
        b = next(b for b in lowers if b.divisor == 3)
        assert b.evaluate({"j": 4}) == 2  # ceil(4/3)

    def test_constant_bounds_none_when_unbounded(self):
        s = BasicSet(["i"], [Constraint.ge("i", 0)])
        assert s.constant_bounds("i") == (0, None)


class TestEnumeration:
    def test_points_of_triangle(self):
        s = BasicSet(
            ["i", "j"],
            [Constraint.ge("i", 0), Constraint.le("i", 3),
             Constraint.ge("j", 0), Constraint.le("j", e.var("i"))],
        )
        points = list(s.points())
        assert len(points) == 10  # 1+2+3+4

    def test_points_unbounded_raises(self):
        with pytest.raises(ValueError):
            list(BasicSet(["i"], [Constraint.ge("i", 0)]).points())

    def test_points_limit(self):
        s = BasicSet.box({"i": (0, 99), "j": (0, 99)})
        with pytest.raises(ValueError):
            list(s.points(limit=100))

    def test_sample_nonempty(self):
        s = BasicSet.box({"i": (3, 7), "j": (-2, -1)})
        point = s.sample()
        assert point is not None
        assert s.contains(point)

    def test_sample_empty(self):
        assert BasicSet.box({"i": (5, 2)}).sample() is None


def lexmin(s):
    """The first point of the set in dimension order, by enumeration."""
    points = sorted(tuple(p[d] for d in s.dims) for p in s.points())
    return dict(zip(s.dims, points[0])) if points else None


class TestSampleIsLexmin:
    """``sample()`` is the first of ``sorted(points())``, or None."""

    def test_random_constrained_boxes(self, isl_mode):
        rng = random.Random(20240302)
        empty = 0
        for _ in range(300):
            dims = ["a", "b", "c", "d"][: rng.randint(1, 4)]
            box = {}
            for d in dims:
                lo = rng.randint(-4, 4)
                box[d] = (lo, lo + rng.randint(-1, 5))
            extra = []
            for _ in range(rng.randint(0, 3)):
                expr = e({d: rng.randint(-4, 4) for d in dims}, rng.randint(-6, 6))
                extra.append(Constraint(expr, rng.choice(["==", ">=", ">="])))
            s = BasicSet.box(box, order=dims).with_constraints(extra)
            want = lexmin(s)
            assert s.sample() == want, s
            empty += want is None
        assert 30 < empty < 270  # both outcomes are well represented

    def test_non_unit_equality(self, isl_mode):
        s = BasicSet.box({"i": (-3, 5), "j": (3, 9)}).with_constraints(
            [Constraint.eq(2 * e.var("i"), e.var("j"))]
        )
        assert s.sample() == lexmin(s) == {"i": 2, "j": 4}

    def test_split_dims(self, isl_mode):
        tile = 4 * e.var("i0") + e.var("i1")
        s = BasicSet(
            ["i0", "i1"],
            [Constraint.ge(tile, 6), Constraint.le(tile, 13),
             Constraint.ge("i1", 0), Constraint.le("i1", 3)],
        )
        assert s.sample() == lexmin(s) == {"i0": 1, "i1": 2}

    def test_backtracks_out_of_an_integer_hole(self, isl_mode):
        # i = 0 passes every projected bound but leaves 3j == 1 for j.
        s = BasicSet.box({"i": (0, 4), "j": (0, 4)}).with_constraints(
            [Constraint.eq(3 * e.var("j"), e.var("i") + 1)]
        )
        assert s.sample() == lexmin(s) == {"i": 2, "j": 1}

    def test_integer_empty_sets(self, isl_mode):
        assert BasicSet.box({"i": (5, 2)}).sample() is None
        assert BasicSet(["i"], [Constraint.eq(2 * e.var("i"), 1)]).sample() is None
        odd = BasicSet.box({"i": (0, 9), "j": (3, 3)}).with_constraints(
            [Constraint.eq(2 * e.var("i"), e.var("j"))]
        )
        assert lexmin(odd) is None and odd.sample() is None

    def test_unbounded_directions_use_a_window(self, isl_mode):
        assert BasicSet(["i"], []).sample() == {"i": -16}
        assert BasicSet(["i"], [Constraint.ge("i", 3)]).sample() == {"i": 3}
        assert BasicSet(["i"], [Constraint.le("i", -2)]).sample() == {"i": -34}
        tied = BasicSet(
            ["i", "j"], [Constraint.ge("i", 3), Constraint.eq("j", e.var("i") + 100)]
        )
        assert tied.sample() == {"i": 3, "j": 103}


class TestLoopBound:
    def test_lower_is_ceil(self):
        b = LoopBound(e.var("n"), 4, is_lower=True)
        assert b.evaluate({"n": 5}) == 2
        assert b.evaluate({"n": 8}) == 2
        assert b.evaluate({"n": -5}) == -1

    def test_upper_is_floor(self):
        b = LoopBound(e.var("n"), 4, is_lower=False)
        assert b.evaluate({"n": 5}) == 1
        assert b.evaluate({"n": -5}) == -2

    def test_negative_numerators_with_several_dims(self):
        # 3i - 2j + 7 over 3: -9 divides exactly, -11 rounds toward
        # +inf for a lower bound and toward -inf for an upper one.
        expr = e.var("i") * 3 - e.var("j") * 2 + 7
        lower, upper = LoopBound(expr, 3, True), LoopBound(expr, 3, False)
        assert lower.evaluate({"i": -4, "j": 2}) == upper.evaluate({"i": -4, "j": 2}) == -3
        assert lower.evaluate({"i": -4, "j": 3}) == -3
        assert upper.evaluate({"i": -4, "j": 3}) == -4

    @pytest.mark.parametrize("divisor,is_lower", [(1, True), (1, False), (3, True), (3, False)])
    def test_rounds_the_exact_quotient(self, divisor, is_lower):
        bound = LoopBound(e.var("i") * 3 - e.var("j") * 2 + 7, divisor, is_lower)
        round_ = math.ceil if is_lower else math.floor
        for i in range(-6, 7):
            for j in range(-6, 7):
                exact = Fraction(3 * i - 2 * j + 7, divisor)
                assert bound.evaluate({"i": i, "j": j}) == round_(exact)

    def test_randomized_against_exact_quotient(self):
        rng = random.Random(7)
        for _ in range(200):
            coeffs = {d: rng.randint(-9, 9) for d in ("i", "j", "k")}
            const = rng.randint(-50, 50)
            divisor = rng.randint(1, 8)
            is_lower = rng.random() < 0.5
            bound = LoopBound(AffineExpr(coeffs, const), divisor, is_lower)
            values = {d: rng.randint(-30, 30) for d in ("i", "j", "k")}
            exact = Fraction(sum(c * values[d] for d, c in coeffs.items()) + const, divisor)
            assert bound.evaluate(values) == (math.ceil if is_lower else math.floor)(exact)

    def test_unbound_dim_names_the_dim(self):
        b = LoopBound(e.var("i") + e.var("x") * 2, 1, True)
        with pytest.raises(KeyError) as err:
            b.evaluate({"i": 1})
        assert err.value.args == ("dimension 'x' is unbound",)

    def test_constant_bound_needs_no_values(self):
        assert LoopBound(e.const(-7), 1, True).evaluate({}) == -7
        assert LoopBound(e.const(-7), 3, True).evaluate({}) == -2
        assert LoopBound(e.const(-7), 3, False).evaluate({"i": 5}) == -3

    def test_common_factor_reduced(self):
        b = LoopBound(e.var("n") * 2 + 4, 2, is_lower=False)
        assert b.divisor == 1
        assert b.expr == e.var("n") + 2

    def test_nonpositive_divisor_rejected(self):
        with pytest.raises(ValueError):
            LoopBound(e.var("n"), 0, is_lower=True)

    def test_equality(self):
        a = LoopBound(e.var("n"), 2, True)
        b = LoopBound(e.var("n"), 2, True)
        assert a == b and hash(a) == hash(b)


class TestEqualityEliminationRegression:
    """Regression: equalities with |coeff| > 1 and negative sign used to
    land in the wrong Fourier-Motzkin combination list, flipping the
    projected bounds (found via strided access images)."""

    def test_negative_wide_coefficient_equality(self):
        # { (j, b) : b - 2j == 0, 0 <= j <= 1 } projected onto b -> [0, 2]
        s = BasicSet(
            ["j", "b"],
            [Constraint.eq(e.var("b") - e.var("j") * 2, 0),
             Constraint.ge("j", 0), Constraint.le("j", 1)],
        )
        p = s.drop_dim("j")
        assert p.constant_bounds("b") == (0, 2)
        assert not p.is_empty()

    def test_positive_wide_coefficient_equality(self):
        # { (j, b) : 2j - b == 0, 0 <= j <= 3 } -> b in [0, 6]
        s = BasicSet(
            ["j", "b"],
            [Constraint.eq(e.var("j") * 2 - e.var("b"), 0),
             Constraint.ge("j", 0), Constraint.le("j", 3)],
        )
        assert s.drop_dim("j").constant_bounds("b") == (0, 6)

    def test_projection_never_empties_nonempty_set(self):
        s = BasicSet(
            ["i", "j", "b"],
            [Constraint.eq(e.var("b") - e.var("i") * 3 + e.var("j") * 2, 0),
             Constraint.ge("i", 0), Constraint.le("i", 2),
             Constraint.ge("j", 0), Constraint.le("j", 2)],
        )
        projected = s.drop_dim("i").drop_dim("j")
        assert not projected.is_empty()
        # every realizable b stays inside the projection
        for p in s.points():
            assert projected.contains({"b": p["b"]})


class TestParallelPruning:
    """Scalar-multiple constraints are pruned, not just exact duplicates."""

    def test_scalar_multiples_collapse_on_construction(self):
        # 2i >= 2 and i >= 1 and 3i >= 3 normalize to the same
        # half-plane; only one survives.
        s = BasicSet(
            ("i",),
            [
                Constraint.ge(e({"i": 2}), 2),
                Constraint.ge(e({"i": 1}), 1),
                Constraint.ge(e({"i": 3}), 3),
            ],
        )
        assert len(s.constraints) == 1

    def test_parallel_inequalities_keep_tightest(self):
        # i >= 1 and i >= 5: the conjunction is i >= 5.
        s = BasicSet(
            ("i",), [Constraint.ge(e({"i": 1}), 1), Constraint.ge(e({"i": 1}), 5)]
        )
        assert len(s.constraints) == 1
        assert not s.contains({"i": 4})
        assert s.contains({"i": 5})

    def test_negated_equalities_collapse(self):
        s = BasicSet(
            ("i", "j"),
            [Constraint.eq(e({"i": 1, "j": -1})), Constraint.eq(e({"i": -1, "j": 1}))],
        )
        assert len(s.constraints) == 1

    def test_intersect_project_chain_stays_bounded(self):
        # Repeated intersect + project_onto used to accumulate parallel
        # constraints without bound (every Fourier-Motzkin step combines
        # them pairwise, squaring the system).  Each iteration lifts the
        # set with an auxiliary dim t and projects it back out, so the
        # elimination really runs; the constraint count must stay flat
        # and the set's meaning must not change.
        s = BasicSet.box({"i": (0, 63), "j": (0, 63), "k": (0, 63)})
        sizes = []
        for step in range(12):
            lifted = BasicSet(
                ("i", "j", "k", "t"),
                list(s.constraints)
                + [
                    Constraint.ge(e({"t": 1}), -step),
                    Constraint.ge(e({"t": -1, "i": 1, "j": 1}), 5 - 64),
                    Constraint.ge(e({"t": 1, "k": -1}), -64),
                ],
            )
            s = lifted.project_onto(("i", "j", "k"))
            sizes.append(len(s.constraints))
        assert max(sizes) <= 16, sizes
        assert sizes[-1] == sizes[3], sizes  # converged, not growing
        assert s.count_points() > 0
