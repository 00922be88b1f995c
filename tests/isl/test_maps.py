"""Unit tests for 2d+1 schedules."""

import pytest

from repro.isl.affine import AffineExpr
from repro.isl.maps import ScheduleMap

e = AffineExpr


def _stamp(schedule, point):
    """The 2d+1 timestamp of one statement instance."""
    return tuple(entry.evaluate(point) for entry in schedule.entries)


class TestScheduleMap:
    def test_default_shape(self):
        s = ScheduleMap.default(["i", "j"])
        assert s.depth == 2
        assert s.static_dim(0) == 0
        assert s.dynamic_dim(0) == e.var("i")
        assert s.dynamic_dim(1) == e.var("j")

    def test_default_with_prefix(self):
        s = ScheduleMap.default(["i"], prefix=[3])
        assert s.static_dim(0) == 3

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            ScheduleMap(["i"], [0, e.var("i")])

    def test_nonconstant_static_rejected(self):
        with pytest.raises(ValueError):
            ScheduleMap(["i"], [e.var("i"), e.var("i"), 0])

    def test_substitute(self):
        s = ScheduleMap.default(["i"])
        t = s.substitute({"i": e.var("i0") * 2 + e.var("i1")}, ["i0", "i1"])
        assert t.dynamic_dim(0) == e.var("i0") * 2 + e.var("i1")

    def test_pad_to_depth(self):
        s = ScheduleMap(["i"], [0, e.var("i"), 7])
        padded = s.pad_to_depth(3)
        assert padded.depth == 3
        assert padded.dynamic_dim(1).is_zero()
        assert padded.dynamic_dim(2).is_zero()
        # The original final static keeps its boundary position so that
        # ordering against deeper fused siblings is preserved.
        assert padded.static_dim(1) == 7
        assert padded.entries[-1].constant == 0

    def test_pad_preserves_lex_order_against_deeper_sibling(self):
        shallow = ScheduleMap(["i"], [0, e.var("i"), 1]).pad_to_depth(2)
        deep = ScheduleMap(["i", "j"], [0, e.var("i"), 0, e.var("j"), 0])
        # shallow was sequenced *after* deep at the boundary; padding must
        # keep every shallow instance after every deep instance at equal i.
        s_vec = _stamp(shallow, {"i": 3})
        d_vec = _stamp(deep, {"i": 3, "j": 99})
        assert d_vec < s_vec

    def test_pad_shrink_rejected(self):
        with pytest.raises(ValueError):
            ScheduleMap.default(["i", "j"]).pad_to_depth(1)


class TestLexOrder:
    def test_schedule_orders_after_primitive(self):
        # S2 after S1 at depth 0 => S1 static prefix 0, S2 static prefix 1.
        s1 = ScheduleMap.default(["i"], prefix=[0])
        s2 = ScheduleMap.default(["i"], prefix=[1])
        assert _stamp(s1, {"i": 9}) < _stamp(s2, {"i": 0})
