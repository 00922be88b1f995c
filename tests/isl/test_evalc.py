"""Compiled bound/trip evaluators equal the interpreted reference path."""

import random

import pytest

from repro.affine.ir import AffineForOp
from repro.isl import evalc as _evalc
from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr
from repro.isl.sets import LoopBound


@pytest.fixture
def fresh_context():
    context = _intern.InternContext()
    previous = _intern.activate(context)
    yield context
    _intern.activate(previous)


def _reference_evaluate(bound, values):
    value = bound.expr.evaluate(values)
    if bound.is_lower:
        return -((-value) // bound.divisor)
    return value // bound.divisor


class TestCompileBound:
    @pytest.mark.parametrize("divisor,is_lower", [(1, True), (1, False), (3, True), (3, False)])
    def test_matches_interpreter(self, divisor, is_lower, fresh_context):
        expr = AffineExpr({"i": 3, "j": -2}, 7)
        fn = _evalc.compile_bound(expr, divisor, is_lower)
        bound = LoopBound(AffineExpr({"i": 3, "j": -2}, 7 * divisor), divisor, is_lower)
        for i in range(-6, 7):
            for j in range(-6, 7):
                values = {"i": i, "j": j}
                assert fn(values) == _reference_evaluate(
                    LoopBound(expr, divisor, is_lower), values
                )
        del bound

    def test_randomized_against_loopbound(self, fresh_context):
        rng = random.Random(7)
        for _ in range(200):
            coeffs = {d: rng.randint(-9, 9) for d in ("i", "j", "k")}
            expr = AffineExpr(coeffs, rng.randint(-50, 50))
            divisor = rng.randint(1, 8)
            is_lower = rng.random() < 0.5
            bound = LoopBound(expr, divisor, is_lower)
            values = {d: rng.randint(-30, 30) for d in ("i", "j", "k")}
            # LoopBound normalizes (expr, divisor) by their gcd first;
            # compile from the normalized pair like evaluate does.
            fn = _evalc.compile_bound(bound.expr, bound.divisor, bound.is_lower)
            assert fn(values) == _reference_evaluate(bound, values)

    def test_unbound_dim_message_matches_interpreter(self, fresh_context):
        expr = AffineExpr({"i": 1, "missing": 2}, 0)
        fn = _evalc.compile_bound(expr, 1, True)
        with pytest.raises(KeyError) as compiled:
            fn({"i": 1})
        with pytest.raises(KeyError) as interpreted:
            expr.evaluate({"i": 1})
        assert compiled.value.args == interpreted.value.args

    def test_cached_per_context(self, fresh_context):
        expr = AffineExpr({"i": 1}, 0)
        assert _evalc.compile_bound(expr, 2, True) is _evalc.compile_bound(expr, 2, True)
        assert _evalc.compile_bound(expr, 2, True) is not _evalc.compile_bound(
            expr, 2, False
        )

    def test_loopbound_evaluate_uses_compiled_path(self, fresh_context):
        bound = LoopBound(AffineExpr({"i": 5}, 3), 2, True)
        was_reference = _intern.set_reference_mode(False)
        try:
            assert bound.evaluate({"i": 4}) == _reference_evaluate(bound, {"i": 4})
            assert bound._fn is not None
        finally:
            _intern.set_reference_mode(was_reference)


class TestCompileTrip:
    def _random_loop(self, rng):
        def bounds(is_lower, count):
            out = []
            for _ in range(count):
                coeffs = {
                    d: rng.randint(-4, 4)
                    for d in rng.sample(("io", "jo", "ko"), rng.randint(0, 3))
                }
                out.append(
                    LoopBound(
                        AffineExpr(coeffs, rng.randint(-20, 20)),
                        rng.randint(1, 4),
                        is_lower,
                    )
                )
            return out

        return AffineForOp(
            "x", bounds(True, rng.randint(1, 3)), bounds(False, rng.randint(1, 3))
        )

    def test_randomized_against_reference(self, fresh_context):
        rng = random.Random(11)
        for _ in range(300):
            loop = self._random_loop(rng)
            extents = {
                d: rng.randint(1, 40)
                for d in rng.sample(("io", "jo", "ko"), rng.randint(0, 3))
            }
            was_reference = _intern.set_reference_mode(True)
            try:
                expected = loop.max_trip_count(extents)
            finally:
                _intern.set_reference_mode(was_reference)
            assert loop.max_trip_count(extents) == expected, (
                loop.lowers,
                loop.uppers,
                extents,
            )

    def test_constant_bounds_fold_to_constant_trip(self, fresh_context):
        loop = AffineForOp(
            "x",
            [LoopBound(AffineExpr({}, 0), 1, True)],
            [LoopBound(AffineExpr({}, 15), 1, False)],
        )
        assert loop.max_trip_count({}) == 16
        assert loop.max_trip_count({}) == loop.constant_trip_count()

    def test_trip_state_invalidates_on_bound_replacement(self, fresh_context):
        loop = AffineForOp(
            "x",
            [LoopBound(AffineExpr({}, 0), 1, True)],
            [LoopBound(AffineExpr({}, 9), 1, False)],
        )
        assert loop.max_trip_count({}) == 10
        # Passes replace bound lists wholesale; the cached evaluator
        # must not survive that.
        loop.uppers = [LoopBound(AffineExpr({}, 4), 1, False)]
        assert loop.max_trip_count({}) == 5

    def test_compiled_fn_cached_per_signature(self, fresh_context):
        lowers = (LoopBound(AffineExpr({}, 0), 1, True),)
        uppers = (LoopBound(AffineExpr({"io": 1}, -1), 1, False),)
        assert _evalc.compile_trip(lowers, uppers) is _evalc.compile_trip(
            lowers, uppers
        )


class TestConstantBoundsAreNotCompiled:
    def test_constant_loopbound_folds(self, fresh_context):
        was_reference = _intern.set_reference_mode(False)
        try:
            for divisor, is_lower in [(1, True), (3, True), (3, False)]:
                bound = LoopBound(AffineExpr({}, -7), divisor, is_lower)
                assert bound.evaluate({}) == _reference_evaluate(bound, {})
                assert bound._fn is None
        finally:
            _intern.set_reference_mode(was_reference)
        assert not fresh_context.bound_fns

    def test_constant_loop_trip_is_constant_trip_count(self, fresh_context):
        loop = AffineForOp(
            "x",
            [LoopBound(AffineExpr({}, 2), 1, True), LoopBound(AffineExpr({}, 5), 2, True)],
            [LoopBound(AffineExpr({}, 15), 1, False)],
        )
        was_reference = _intern.set_reference_mode(False)
        try:
            assert loop.max_trip_count({"io": 9}) == loop.constant_trip_count() == 13
        finally:
            _intern.set_reference_mode(was_reference)
        assert not fresh_context.trip_fns and not fresh_context.bound_fns


@pytest.mark.perfsmoke
@pytest.mark.parametrize("name", ["gemm", "seidel"])
def test_perfsmoke_a_sweep_compiles_no_constant_bound(name, fresh_context):
    """Count-based guard: every compiled bound has a free dim and every
    compiled trip formula a non-constant bound (797 of 1 158 compiles
    per ``kernel_dse`` pass were for constants before they folded)."""
    from repro import workloads
    from repro.dse import DseOptions, auto_dse

    was_reference = _intern.set_reference_mode(False)
    try:
        for fraction in (0.25, 1.0):
            auto_dse(workloads.get(name, 256), options=DseOptions(resource_fraction=fraction))
    finally:
        _intern.set_reference_mode(was_reference)
    if name == "seidel":  # skewed: bounds with free dims remain
        assert fresh_context.bound_fns and fresh_context.trip_fns
    assert all(not expr.is_constant() for expr, _, _ in fresh_context.bound_fns)
    for lowers, uppers in fresh_context.trip_fns:
        assert any(not bound.expr.is_constant() for bound in lowers + uppers)
