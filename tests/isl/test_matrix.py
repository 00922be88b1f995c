"""The vectorized isl kernels are bit-identical to the reference path.

:mod:`repro.isl.matrix` promises *bit identity* -- same constraints,
same order -- with the pure-Python implementations in
:mod:`repro.isl.sets`, which is what lets ``_eliminate`` dispatch by
system size and makes ``REPRO_ISL_REFERENCE=1`` a differential oracle.
This suite pins that contract with deterministic cases, randomized
sweeps, and a hypothesis property test, plus the int64-overflow
fallbacks that keep exact big-integer arithmetic reachable.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl import matrix as _matrix
from repro.isl import sets as _sets
from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, GE, Constraint

DIMS = ("i", "j", "k", "l")


def _random_system(rng, n, eq_frac=0.2, span=40):
    cons = []
    for _ in range(n):
        picked = rng.sample(DIMS, rng.randint(1, len(DIMS)))
        coeffs = {d: rng.randint(-6, 6) for d in picked}
        expr = AffineExpr(coeffs, rng.randint(-span, span))
        cons.append(Constraint(expr, EQ if rng.random() < eq_frac else GE))
    return cons


def _structured_system(tiles, extent=64):
    cons = []
    for d in ("i", "j", "k"):
        cons.append(Constraint.ge(AffineExpr({d: 1})))
        cons.append(Constraint.ge(AffineExpr({d: -1}, extent - 1)))
    for t in range(tiles):
        cons.append(Constraint.ge(AffineExpr({"k": 1, "i": -1}, 8 * t)))
        cons.append(Constraint.ge(AffineExpr({"k": -1, "j": 1}, 8 * t + 7)))
        cons.append(Constraint.ge(AffineExpr({"k": 2, "i": 1, "j": -1}, 3 * t + 1)))
    return cons


class TestPackSystem:
    def test_round_trip_layout(self):
        cons = [
            Constraint.ge(AffineExpr({"i": 2, "k": -3}, 5)),
            Constraint.eq(AffineExpr({"j": 1}, -4)),
        ]
        names, matrix, is_eq = _matrix.pack_system(cons)
        assert names == ["i", "j", "k"]
        assert matrix.tolist() == [[2, 0, -3, 5], [0, 1, 0, -4]]
        assert is_eq.tolist() == [False, True]

    def test_explicit_column_order(self):
        cons = [Constraint.ge(AffineExpr({"i": 1, "j": 2}, 3))]
        names, matrix, _ = _matrix.pack_system(cons, dims=("j", "i"))
        assert names == ["j", "i"]
        assert matrix.tolist() == [[2, 1, 3]]

    def test_coefficient_overflow_returns_none(self):
        # j's unit coefficient keeps the gcd at 1 so normalization
        # cannot shrink the oversized coefficient away.
        big = _matrix.COEFF_LIMIT + 1
        cons = [Constraint.ge(AffineExpr({"i": big, "j": 1}, 0))]
        assert _matrix.pack_system(cons) is None

    def test_constant_overflow_returns_none(self):
        cons = [Constraint.ge(AffineExpr({"i": 1}, -(_matrix.COEFF_LIMIT + 1)))]
        assert _matrix.pack_system(cons) is None

    def test_unknown_dim_returns_none(self):
        cons = [Constraint.ge(AffineExpr({"i": 1}, 0))]
        assert _matrix.pack_system(cons, dims=("j",)) is None


class TestEliminateIdentity:
    def test_structured_tiled_system(self):
        cons = _structured_system(tiles=12)
        assert len(cons) >= _sets.VECTORIZE_MIN_CONSTRAINTS
        assert _matrix.eliminate(cons, "k") == _sets._eliminate_reference(cons, "k")

    def test_substitution_pivot_path(self):
        cons = [
            Constraint.eq(AffineExpr({"k": 1, "i": -2}, 1)),
            Constraint.ge(AffineExpr({"k": 3, "j": 1}, 7)),
            Constraint.ge(AffineExpr({"i": 1}, 0)),
        ]
        assert _matrix.eliminate(cons, "k") == _sets._eliminate_reference(cons, "k")

    def test_dim_not_mentioned(self):
        cons = [Constraint.ge(AffineExpr({"i": 1}, 0))] * 3
        assert _matrix.eliminate(cons, "k") == _sets._eliminate_reference(cons, "k")

    def test_contradictions_all_survive(self):
        # Parallel pruning must keep every constant contradiction row
        # (emptiness detection), not collapse them to the tightest.
        cons = [
            Constraint.ge(AffineExpr({"k": 1}, 0)),
            Constraint.ge(AffineExpr({"k": -1}, -3)),  # k <= -3: empty
            Constraint.ge(AffineExpr({"k": 2}, 1)),
            Constraint.ge(AffineExpr({"k": -2}, -9)),
        ] * 10  # above the vectorize + dedupe thresholds
        ref = _sets._eliminate_reference(cons, "k")
        vec = _matrix.eliminate(cons, "k")
        assert vec == ref
        assert any(c.expr.is_constant() and c.expr.constant < 0 for c in vec)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_sweep(self, seed):
        rng = random.Random(seed)
        for _ in range(120):
            cons = _random_system(rng, rng.randint(1, 60))
            name = rng.choice(DIMS)
            vec = _matrix.eliminate(cons, name)
            if vec is None:
                continue
            ref = _sets._eliminate_reference(cons, name)
            assert vec == ref, (cons, name)

    def test_overflow_falls_back_to_none(self):
        big = _matrix.COEFF_LIMIT + 1
        cons = [Constraint.ge(AffineExpr({"k": 1, "i": big}, 0))]
        assert _matrix.eliminate(cons, "k") is None

    def test_pairing_past_the_bound_raises_isl001(self, monkeypatch):
        """Both implementations refuse a step whose lower x upper bound
        pairing exceeds MAX_FM_PAIRS, before allocating or looping."""
        from repro.isl import constraint as _constraint

        cons = _structured_system(tiles=12)  # 25 lowers x 13 uppers of k
        monkeypatch.setattr(_constraint, "MAX_FM_PAIRS", 25 * 13 - 1)
        for eliminate in (_matrix.eliminate, _sets._eliminate_reference):
            with pytest.raises(_constraint.EliminationBlowup) as info:
                eliminate(list(cons), "k")
            assert info.value.code == "ISL001"
        monkeypatch.setattr(_constraint, "MAX_FM_PAIRS", 25 * 13)
        assert _matrix.eliminate(list(cons), "k") == _sets._eliminate_reference(
            list(cons), "k"
        )

    def test_dispatcher_is_identical_to_reference(self):
        # The public path through BasicSet must not depend on which
        # implementation the size-threshold dispatch picks.
        cons = _structured_system(tiles=12)
        fast = _sets._eliminate(list(cons), "k")
        ref = _sets._eliminate_reference(list(cons), "k")
        assert fast == ref


coeff = st.integers(min_value=-5, max_value=5)
const = st.integers(min_value=-30, max_value=30)


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    cons = []
    for _ in range(n):
        coeffs = {d: draw(coeff) for d in DIMS}
        kind = EQ if draw(st.booleans()) and draw(st.booleans()) else GE
        cons.append(Constraint(AffineExpr(coeffs, draw(const)), kind))
    return cons


class TestEliminateProperty:
    @settings(max_examples=60, deadline=None)
    @given(systems(), st.sampled_from(DIMS))
    def test_order_identical_to_reference(self, cons, name):
        vec = _matrix.eliminate(cons, name)
        if vec is None:
            return
        ref = _sets._eliminate_reference(cons, name)
        assert vec == ref  # list equality: same constraints, same order


class TestPruneParallelRows:
    def test_keeps_min_const_at_first_occurrence(self):
        rows = np.array(
            [[1, 0, 9], [0, 1, 4], [1, 0, 2], [1, 0, 5]] * 10, dtype=np.int64
        )
        out = _matrix._prune_parallel_rows(rows)
        assert out.tolist() == [[1, 0, 2], [0, 1, 4]]

    def test_below_threshold_untouched(self):
        rows = np.array([[1, 0, 9], [1, 0, 2]], dtype=np.int64)
        assert _matrix._prune_parallel_rows(rows).tolist() == rows.tolist()

    def test_constant_rows_pass_through(self):
        rows = np.array([[0, 0, -2], [0, 0, -9], [1, 1, 3]] * 15, dtype=np.int64)
        out = _matrix._prune_parallel_rows(rows)
        # All 30 contradiction rows survive; the parallel [1,1,*] rows
        # collapse to one at the first occurrence.
        assert out.tolist().count([0, 0, -2]) == 15
        assert out.tolist().count([0, 0, -9]) == 15
        assert out.tolist().count([1, 1, 3]) == 1
        assert out.tolist()[2] == [1, 1, 3]


class TestPointKernels:
    def test_candidate_grid_matches_product_order(self):
        import itertools

        ranges = [range(0, 3), range(-1, 2), range(2, 4)]
        grid = _matrix.candidate_grid(ranges)
        assert grid.tolist() == [list(p) for p in itertools.product(*ranges)]

    def test_contains_batch_matches_scalar(self):
        cons = [
            Constraint.ge(AffineExpr({"i": 1})),
            Constraint.ge(AffineExpr({"i": -1, "j": 1}, 2)),
            Constraint.eq(AffineExpr({"j": -2, "i": 1}, 1)),
        ]
        dims = ("i", "j")
        grid = _matrix.candidate_grid([range(-4, 5), range(-4, 5)])
        mask = _matrix.contains_batch(grid, dims, cons)
        for row, ok in zip(grid.tolist(), mask.tolist()):
            point = dict(zip(dims, row))
            assert ok == all(c.satisfied_by(point) for c in cons), point

    def test_contains_batch_empty_system(self):
        grid = _matrix.candidate_grid([range(0, 3)])
        mask = _matrix.contains_batch(grid, ("i",), [])
        assert mask.all()

    def test_contains_batch_overflow_returns_none(self):
        dims = ("i", "j")
        points = np.array([[1 << 40, 1]], dtype=np.int64)
        cons_big = [Constraint.ge(AffineExpr({"i": 1 << 25, "j": 1}, 0))]
        cons_small = [Constraint.ge(AffineExpr({"i": 1, "j": 1}, 0))]
        assert _matrix.contains_batch(points, dims, cons_big) is None
        assert _matrix.contains_batch(points, dims, cons_small) is not None
