"""The vectorized point kernels agree with the scalar definitions.

:mod:`repro.isl.matrix` packs a constraint system into an int64 matrix
and tests membership of a whole grid of points at once; this suite pins
the packed layout, the int64-overflow fallbacks that keep exact
big-integer arithmetic reachable, and the point kernels against
``Constraint.satisfied_by`` and ``itertools.product``.
"""

import numpy as np

from repro.isl import matrix as _matrix
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint


class TestPackSystem:
    def test_round_trip_layout(self):
        cons = [
            Constraint.ge(AffineExpr({"i": 2, "k": -3}, 5)),
            Constraint.eq(AffineExpr({"j": 1}, -4)),
        ]
        matrix, is_eq = _matrix.pack_system(cons, dims=("i", "j", "k"))
        assert matrix.tolist() == [[2, 0, -3, 5], [0, 1, 0, -4]]
        assert is_eq.tolist() == [False, True]

    def test_explicit_column_order(self):
        cons = [Constraint.ge(AffineExpr({"i": 1, "j": 2}, 3))]
        matrix, _ = _matrix.pack_system(cons, dims=("j", "i"))
        assert matrix.tolist() == [[2, 1, 3]]

    def test_coefficient_overflow_returns_none(self):
        # j's unit coefficient keeps the gcd at 1 so normalization
        # cannot shrink the oversized coefficient away.
        big = _matrix.COEFF_LIMIT + 1
        cons = [Constraint.ge(AffineExpr({"i": big, "j": 1}, 0))]
        assert _matrix.pack_system(cons, dims=("i", "j")) is None

    def test_constant_overflow_returns_none(self):
        cons = [Constraint.ge(AffineExpr({"i": 1}, -(_matrix.COEFF_LIMIT + 1)))]
        assert _matrix.pack_system(cons, dims=("i",)) is None

    def test_unknown_dim_returns_none(self):
        cons = [Constraint.ge(AffineExpr({"i": 1}, 0))]
        assert _matrix.pack_system(cons, dims=("j",)) is None


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
