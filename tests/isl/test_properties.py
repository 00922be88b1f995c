"""Property-based tests (hypothesis) for the integer set library."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.affine import AffineExpr
from repro.isl.astbuild import AstBuilder
from repro.isl.constraint import GE, Constraint
from repro.isl.maps import ScheduleMap
from repro.isl.sets import BasicSet

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
    @settings(max_examples=50)
    def test_emptiness_agrees_with_enumeration(self, s):
        empty = s.is_empty()
        has_point = any(True for _ in s.points(limit=10000))
        assert empty == (not has_point)

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
