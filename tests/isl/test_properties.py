"""Property-based tests (hypothesis) for the integer set library."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.affine import AffineExpr
from repro.isl.astbuild import AstBuilder
from repro.isl.constraint import EQ, GE, Constraint
from repro.isl.maps import ScheduleMap
from repro.isl.sets import BasicSet

from tests.isl.oracle import row_eliminate
from tests.isl.test_astbuild import execute

e = AffineExpr

DIMS = ("i", "j")

small_int = st.integers(min_value=-8, max_value=8)
coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def affine_exprs(draw, dims=DIMS):
    coeffs = {d: draw(coeff) for d in dims}
    return AffineExpr(coeffs, draw(small_int))


@st.composite
def random_sets(draw, dims=DIMS):
    """Bounded random sets: a box intersected with random half-planes."""
    bounds = {}
    for d in dims:
        lo = draw(st.integers(min_value=-4, max_value=2))
        hi = lo + draw(st.integers(min_value=0, max_value=6))
        bounds[d] = (lo, hi)
    base = BasicSet.box(bounds, order=dims)
    n_extra = draw(st.integers(min_value=0, max_value=2))
    extra = [Constraint(draw(affine_exprs(dims)), GE) for _ in range(n_extra)]
    return base.with_constraints(extra)


@st.composite
def points(draw, dims=DIMS):
    return {d: draw(small_int) for d in dims}


class TestAffineAlgebra:
    @given(affine_exprs(), affine_exprs(), points())
    def test_add_is_pointwise(self, a, b, p):
        assert (a + b).evaluate(p) == a.evaluate(p) + b.evaluate(p)

    @given(affine_exprs(), small_int, points())
    def test_scale_is_pointwise(self, a, k, p):
        assert (a * k).evaluate(p) == k * a.evaluate(p)

    @given(affine_exprs(), points())
    def test_neg_involution(self, a, p):
        assert (-(-a)) == a
        assert (-a).evaluate(p) == -a.evaluate(p)

    @given(affine_exprs(), affine_exprs(), affine_exprs())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(affine_exprs(), points())
    def test_substitution_identity(self, a, p):
        bound = a.substitute({d: AffineExpr.var(d) for d in DIMS})
        assert bound == a


class TestSetSemantics:
    @given(random_sets(), random_sets(), points())
    def test_intersection_is_conjunction(self, a, b, p):
        assert a.intersect(b).contains(p) == (a.contains(p) and b.contains(p))

    @given(random_sets())
    @settings(max_examples=50, derandomize=True, database=None)
    def test_emptiness_agrees_with_enumeration(self, s):
        """The sound direction, on every draw: a set ``is_empty`` proves
        empty has no integer point.  The converse is not exact (rational
        Fourier-Motzkin, ROADMAP item 5; pinned below), so the draws are
        fixed and no stored example replays into later runs."""
        if s.is_empty():
            assert not any(True for _ in s.points(limit=10000))

    @pytest.mark.xfail(
        strict=True,
        reason="is_empty is rational Fourier-Motzkin: a set with rational "
        "points and no integer point reads non-empty (ROADMAP item 5)",
    )
    def test_emptiness_is_exact_on_a_rational_only_set(self):
        i, j = e.var("i"), e.var("j")
        s = BasicSet.box({"i": (0, 1), "j": (0, 2)}, order=DIMS).with_constraints([
            Constraint(2 * i - j + 1, GE), Constraint(-2 * i + 3 * j - 5, GE),
        ])
        assert not list(s.points(limit=10000))
        assert s.is_empty()

    @given(random_sets())
    @settings(max_examples=50)
    def test_projection_is_shadow(self, s):
        projected = s.drop_dim("j")
        shadow = {p["i"] for p in s.points(limit=10000)}
        for i in range(-6, 12):
            if projected.contains({"i": i}):
                # FM with integer tightening may keep rational-only points,
                # but never drops a real shadow point.
                pass
            else:
                assert i not in shadow

    @given(random_sets())
    @settings(max_examples=50)
    def test_sample_member_when_nonempty(self, s):
        point = s.sample()
        if point is not None:
            assert s.contains(point)
        else:
            assert not list(s.points(limit=10000))

    @given(random_sets())
    @settings(max_examples=30)
    def test_rename_preserves_cardinality(self, s):
        renamed = s.rename_dims({"i": "x", "j": "y"})
        assert renamed.count_points(limit=10000) == s.count_points(limit=10000)


class TestSplitPreservesPoints:
    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=2, max_value=5),
    )
    def test_split_cardinality(self, extent, factor):
        dom = BasicSet.box({"i": (0, extent)})
        split = dom.substitute_dim(
            "i", e.var("i0") * factor + e.var("i1"), ["i0", "i1"],
            extra=[Constraint.ge("i1", 0), Constraint.le("i1", factor - 1)],
        )
        assert split.count_points() == extent + 1

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-3, max_value=3),
    )
    def test_skew_is_bijective(self, extent, factor):
        dom = BasicSet.box({"i": (0, extent), "j": (0, extent)})
        skewed = dom.substitute_dim(
            "j", e.var("jp") - e.var("i") * factor, ["i", "jp"]
        )
        assert skewed.count_points() == (extent + 1) ** 2


class TestAstExecution:
    @given(random_sets())
    @settings(max_examples=40)
    def test_ast_visits_exactly_the_domain(self, s):
        if s.is_empty():
            return
        ast = AstBuilder().build([("S", s, ScheduleMap.default(list(s.dims)), None)])
        visited = {tuple(sorted(v.items())) for _, v in execute(ast)}
        expected = {tuple(sorted(p.items())) for p in s.points(limit=10000)}
        assert visited == expected

    @given(random_sets(), random_sets())
    @settings(max_examples=25)
    def test_two_statement_order_is_lexicographic(self, d1, d2):
        s1 = ScheduleMap.default(list(d1.dims), prefix=[0])
        d2 = d2.rename_dims({"i": "k", "j": "l"})
        s2 = ScheduleMap.default(list(d2.dims), prefix=[1])
        ast = AstBuilder().build([("A", d1, s1, None), ("B", d2, s2, None)])
        trace = [t[0] for t in execute(ast)]
        if "A" in trace and "B" in trace:
            assert trace.index("B") > len([t for t in trace if t == "A"]) - 1
            first_b = trace.index("B")
            assert all(t == "B" for t in trace[first_b:])


#: The brute-force window for the elimination property, per dim.
WINDOW = range(-5, 6)


@st.composite
def fm_systems(draw):
    """18-40 rows over ``(i, j, k)``, up to two of them equalities.

    Every row but one is built to hold at an anchor point near the
    origin with a small slack; the last row may cut the anchor off.  So
    most systems have integer points inside ``WINDOW`` and some are
    empty.  ``unit`` restricts k's coefficients to -1, 0 and 1.
    """
    unit = draw(st.booleans())
    anchor = {d: draw(st.integers(-2, 2)) for d in ("i", "j", "k")}
    n_eq = draw(st.integers(0, 2))
    n = draw(st.integers(18, 40))
    cons = []
    for row in range(n):
        coeffs = {d: draw(st.integers(-4, 4)) for d in ("i", "j")}
        coeffs["k"] = draw(st.integers(-1, 1) if unit else st.integers(-4, 4))
        at_anchor = sum(c * anchor[d] for d, c in coeffs.items())
        if row < n_eq:
            cons.append(Constraint(AffineExpr(coeffs, -at_anchor), EQ))
        else:
            slack = draw(st.integers(-3 if row == n - 1 else 0, 10))
            cons.append(Constraint(AffineExpr(coeffs, slack - at_anchor), GE))
    return draw(st.permutations(cons)), unit


def _extends(cons, point):
    """Whether some integer k puts ``point`` + k inside ``cons``.

    With unit coefficients on k every bound on k is an integer, so the
    feasible k form an interval whose finite ends are bound values; an
    interval unbounded on both sides contains 0.
    """
    candidates = {0}
    for c in cons:
        a = c.expr.coeff("k")
        if a:
            candidates.add(-a * c.expr.evaluate(dict(point, k=0)))
    return any(
        all(c.satisfied_by(dict(point, k=k)) for c in cons) for k in candidates
    )


class TestEliminationStep:
    """One Fourier-Motzkin step, checked by brute force over ``WINDOW``."""

    @settings(max_examples=100, deadline=None)
    @given(fm_systems())
    def test_sound_and_exact_for_unit_coefficients(self, drawn):
        cons, unit = drawn
        result = row_eliminate(list(cons), "k")
        assert not any(c.involves("k") for c in result)
        # Soundness: the shadow of every point of the system satisfies
        # the result.
        for i, j, k in itertools.product(WINDOW, repeat=3):
            point = {"i": i, "j": j, "k": k}
            if all(c.satisfied_by(point) for c in cons):
                assert all(c.satisfied_by(point) for c in result), point
        if not unit:
            return
        # Exactness: with unit coefficients on k, integer FM adds no
        # point, so every point of the result lifts back.
        for i, j in itertools.product(WINDOW, repeat=2):
            point = {"i": i, "j": j}
            if all(c.satisfied_by(point) for c in result):
                assert _extends(cons, point), point


DIMS3 = ("i", "j", "k")
names3 = st.sampled_from(DIMS3 + ("x",))


def _public(coeffs, const):
    """The public constructor, over a dict summed by hand in reverse
    name order (interning must not depend on the order it is given)."""
    summed = {}
    for name, c in sorted(coeffs, reverse=True):
        summed[name] = summed.get(name, 0) + c
    return AffineExpr(summed, const)


class TestTrustedConstruction:
    """The trusted paths intern the very object the public constructor
    returns for the same value, and a trusted set equals the checked one."""

    @given(affine_exprs(DIMS3), affine_exprs(DIMS3), small_int)
    def test_arithmetic(self, a, b, k):
        terms = a.coeffs.items()
        assert -a is _public([(n, -c) for n, c in terms], -a.constant)
        assert a * k is _public([(n, c * k) for n, c in terms], a.constant * k)
        assert a + b is _public(list(terms) + list(b.coeffs.items()), a.constant + b.constant)
        if k:
            assert (a * k) // k is a

    @given(affine_exprs(DIMS3), st.dictionaries(st.sampled_from(DIMS3), affine_exprs(("j", "x"))))
    def test_substitute(self, a, bindings):
        terms = []
        const = a.constant
        for name, c in a.coeffs.items():
            repl = bindings.get(name, AffineExpr.var(name))
            terms += [(n, c * r) for n, r in repl.coeffs.items()]
            const += c * repl.constant
        assert a.substitute(bindings) is _public(terms, const)

    @given(affine_exprs(DIMS3), st.dictionaries(st.sampled_from(DIMS3), names3))
    def test_rename(self, a, mapping):
        terms = [(mapping.get(n, n), c) for n, c in a.coeffs.items()]
        assert a.rename(mapping) is _public(terms, a.constant)

    @given(affine_exprs(DIMS3), st.integers(min_value=2, max_value=4))
    def test_normalized_constraint(self, a, g):
        scaled = a * g + g - 1
        expr = Constraint(scaled, GE).expr
        assert expr is AffineExpr(expr.coeffs, expr.constant)

    @settings(max_examples=50, deadline=None)
    @given(fm_systems())
    def test_fm_survivors(self, drawn):
        cons, _ = drawn
        for c in row_eliminate(list(cons), "k"):
            expr = AffineExpr(c.expr.coeffs, c.expr.constant)
            assert c.expr is expr
            assert c is Constraint(expr, c.kind)

    @given(random_sets(DIMS3), st.permutations(DIMS3), st.sampled_from(DIMS3),
           st.lists(st.sampled_from(DIMS3), unique=True))
    def test_subsets_and_permutations_of_pruned_sets(self, s, order, name, keep):
        reordered = s.reorder_dims(order)
        reaching = s._reaching(name, keep + [name])
        for trusted in (reordered, reaching):
            checked = BasicSet(trusted.dims, trusted.constraints)
            assert trusted == checked
            assert trusted.constraints == checked.constraints
