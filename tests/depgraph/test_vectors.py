"""Unit tests for distance and direction vectors."""

import pytest

from repro.depgraph.vectors import ANY, EQ, GT, LT, DirectionVector, DistanceVector, permute


class TestDistanceVector:
    def test_indexing_by_dim(self):
        v = DistanceVector(("i", "j", "k"), (0, 0, 1))
        assert v["k"] == 1
        assert v["i"] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DistanceVector(("i",), (0, 1))

    def test_is_zero(self):
        assert DistanceVector(("i",), (0,)).is_zero()
        assert not DistanceVector(("i",), (1,)).is_zero()
        assert not DistanceVector(("i",), (None,)).is_zero()

    def test_str_renders_star(self):
        assert str(DistanceVector(("i", "j"), (1, None))) == "(1, *)"


class TestDirectionVector:
    def test_from_distance(self):
        d = DistanceVector(("i", "j", "k"), (1, -2, 0)).direction()
        assert d.entries == (LT, GT, EQ)

    def test_from_unknown_distance(self):
        d = DistanceVector(("i",), (None,)).direction()
        assert d.entries == (ANY,)

    def test_invalid_entry_rejected(self):
        with pytest.raises(ValueError):
            DirectionVector(("i",), ("?",))

    def test_paper_fig1_direction(self):
        # Fig. 1: distance (1, 1) -> direction (<, <)
        d = DistanceVector(("i", "j"), (1, 1)).direction()
        assert str(d) == "(<, <)"


class TestPermute:
    def test_interchange_swaps_entries(self):
        v = DistanceVector(("i", "j"), (0, 1))
        swapped = permute(v, ("j", "i"))
        assert swapped.dims == ("j", "i")
        assert swapped.entries == (1, 0)

