"""Unit tests for basic maps (affine relations)."""

import pytest

from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.maps import MultiAffineMap
from repro.isl.relation import BasicMap
from repro.isl.sets import BasicSet

e = AffineExpr


def access_map():
    """{ [i, j] -> [a, b] : a = i + 1, b = 2j }"""
    func = MultiAffineMap(["i", "j"], [e.var("i") + 1, e.var("j") * 2])
    return BasicMap.from_multi_affine(func, ["a", "b"])


class TestConstruction:
    def test_from_multi_affine(self):
        m = access_map()
        assert m.contains({"i": 0, "j": 3}, {"a": 1, "b": 6})
        assert not m.contains({"i": 0, "j": 3}, {"a": 1, "b": 5})

    def test_overlapping_spaces_rejected(self):
        with pytest.raises(ValueError):
            BasicMap(["i"], ["i"])

    def test_arity_checked(self):
        func = MultiAffineMap(["i"], [e.var("i")])
        with pytest.raises(ValueError):
            BasicMap.from_multi_affine(func, ["a", "b"])


class TestImages:
    def test_domain_and_range(self):
        m = access_map().intersect_domain(
            BasicSet.box({"i": (0, 1), "j": (0, 1)}, order=["i", "j"])
        )
        assert m.domain().count_points() == 4
        # the range shadow is a 2x3 box (stride of b smoothed over)
        assert m.range().count_points() == 6


class TestAlgebra:
    def test_empty_relation(self):
        m = BasicMap(["i"], ["o"], [Constraint.ge("i", 1), Constraint.le("i", 0)])
        assert m.is_empty()


class TestFootprint:
    def test_stencil_footprint(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.depgraph.footprint import access_footprint, compute_footprints

        with Function("st") as f:
            i = var("i", 1, 9)
            A = placeholder("A", (10,))
            s = compute("s", [i], (A(i - 1) + A(i + 1)) * 0.5, A(i))
        footprints = compute_footprints(s)
        # loads reach [0, 9]; the store covers [1, 8]; union box = [0, 9]
        assert footprints["A"].box == ((0, 9),)
        assert footprints["A"].box_elements == 10

    def test_tile_footprint_much_smaller_than_array(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.depgraph.footprint import compute_footprints

        with Function("tile") as f:
            i = var("i", 0, 8)
            j = var("j", 0, 8)
            A = placeholder("A", (1024, 1024))
            s = compute("s", [i, j], A(i + 100, j + 200) * 2.0, A(i + 100, j + 200))
        fp = compute_footprints(s)["A"]
        # i, j range over [0, 8) -> offsets reach 107/207 inclusive
        assert fp.box == ((100, 107), (200, 207))
        assert fp.box_elements == 64

    def test_strided_footprint_box(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.depgraph.footprint import access_footprint

        with Function("stride") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (32,))
            B = placeholder("B", (8,))
            s = compute("s", [i], A(i * 4) + 1.0, B(i))
        fp = access_footprint(s, s.loads()[0])
        assert fp.box == ((0, 28),)  # i in [0, 8) -> 4i in [0, 28]

    def test_buffer_bits(self):
        from repro.dsl import Function, compute, placeholder, var
        from repro.dsl.dtypes import float64
        from repro.depgraph.footprint import buffer_bits

        with Function("bb") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (100,), float64)
            s = compute("s", [i], A(i) * 2.0, A(i))
        assert buffer_bits(s)["A"] == 4 * 64  # i in [0, 4)
