"""Unit tests for the operator library, report structures, and power model."""

import pytest

from repro.dsl import dtypes
from repro.hls import oplib
from repro.hls.device import DEFAULT_DEVICE
from repro.hls.power import estimate_power
from repro.hls.report import LoopReport, Resources, SynthesisReport, speedup


class TestOpLib:
    def test_float_mac_uses_dsps(self):
        add = oplib.op_cost("+", dtypes.float32)
        mul = oplib.op_cost("*", dtypes.float32)
        assert add.dsp > 0 and mul.dsp > 0
        assert add.latency >= 1 and mul.latency >= 1

    def test_float_div_slowest_basic_op(self):
        div = oplib.op_cost("/", dtypes.float32)
        for kind in "+-*":
            assert div.latency > oplib.op_cost(kind, dtypes.float32).latency

    def test_double_costs_more_than_float(self):
        f = oplib.op_cost("+", dtypes.float32)
        d = oplib.op_cost("+", dtypes.float64)
        assert d.latency > f.latency
        assert d.dsp > f.dsp
        assert d.lut > f.lut

    def test_int_add_is_free_latency(self):
        assert oplib.op_cost("+", dtypes.int32).latency == 0

    def test_narrow_int_cheaper(self):
        wide = oplib.op_cost("+", dtypes.int32)
        narrow = oplib.op_cost("+", dtypes.int8)
        assert narrow.lut < wide.lut

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            oplib.op_cost("atan2", dtypes.float32)

    def test_intrinsics_characterized(self):
        for name in ("min", "max", "abs", "sqrt", "exp", "log", "relu"):
            assert oplib.op_cost(name, dtypes.float32).latency >= 0


class TestResources:
    def test_add(self):
        a = Resources(dsp=1, lut=10, ff=20)
        b = Resources(dsp=2, lut=5, ff=1, bram_bits=8)
        c = a + b
        assert (c.dsp, c.lut, c.ff, c.bram_bits) == (3, 15, 21, 8)

    def test_scaled(self):
        assert Resources(dsp=2, lut=3).scaled(4).dsp == 8

    def test_max_with(self):
        a = Resources(dsp=1, lut=100)
        b = Resources(dsp=5, lut=10)
        m = a.max_with(b)
        assert (m.dsp, m.lut) == (5, 100)


def _report(cycles, dsp=0, lut=0, ff=0, loops=()):
    return SynthesisReport(
        function_name="f",
        device=DEFAULT_DEVICE,
        clock_ns=10.0,
        total_cycles=cycles,
        resources=Resources(dsp=dsp, lut=lut, ff=ff),
        loops=list(loops),
        power_w=0.5,
    )


class TestSynthesisReport:
    def test_latency_us(self):
        assert _report(1000).latency_us == 10.0

    def test_utilizations(self):
        r = _report(1, dsp=110, lut=26_600, ff=53_200)
        assert r.dsp_util == pytest.approx(0.5)
        assert r.lut_util == pytest.approx(0.5)
        assert r.ff_util == pytest.approx(0.5)

    def test_feasible(self):
        assert _report(1, dsp=220).feasible()
        assert not _report(1, dsp=221).feasible()
        assert not _report(1, lut=53_201).feasible()

    def test_worst_ii(self):
        loops = [
            LoopReport("i", 8, True, 3, 5, 100),
            LoopReport("j", 8, True, 7, 5, 100),
            LoopReport("k", 8, False, None, 5, 100),
        ]
        assert _report(1, loops=loops).worst_ii() == 7

    def test_worst_ii_none(self):
        assert _report(1).worst_ii() is None

    def test_speedup(self):
        assert speedup(_report(1000), _report(10)) == 100.0

    def test_speedup_zero_safe(self):
        assert speedup(_report(100), _report(0)) == 100.0

    def test_summary_renders(self):
        text = _report(123, dsp=10).summary()
        assert "123 cycles" in text and "DSP 10" in text


class TestPower:
    def test_monotone_in_resources(self):
        small = estimate_power(Resources(dsp=10, lut=1000, ff=1000))
        large = estimate_power(Resources(dsp=100, lut=10000, ff=10000))
        assert large > small

    def test_static_floor(self):
        assert estimate_power(Resources()) > 0

    def test_table3_range(self):
        """Designs in Table III's resource range give power in its range."""
        # POM GEMM: 166 DSP, 23067 FF, 30966 LUT -> paper 0.459 W
        p = estimate_power(Resources(dsp=166, ff=23067, lut=30966))
        assert 0.3 < p < 0.7
        # ScaleHLS GEMM: 214 DSP, 41616 FF, 42676 LUT -> paper 0.767 W
        p2 = estimate_power(Resources(dsp=214, ff=41616, lut=42676))
        assert p2 > p
