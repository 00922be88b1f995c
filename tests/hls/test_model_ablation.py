"""Ablation of the virtual HLS model's design choices.

DESIGN.md calls out several model features as load-bearing for the
paper's shapes; this suite flips each one off and asserts its effect:

* modulo-scheduling resource sharing over the II (POLSCA's tiny DSP),
* sequential operator sharing across nests (DNN "resource reuse"),
* dataflow accounting (ScaleHLS's device overflow),
* memory-port II under partitioning (POLSCA's collapse),
* clock-period operator re-staging.
"""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.hls import DEFAULT_DEVICE, HlsEstimator
from repro.pipeline import lower_to_affine
from repro.workloads import polybench


def multi_nest_design(n=256):
    """2MM: two chained matrix products that cannot fuse (transposed
    tmp access), so the optimized design has two sequential nests."""
    f = polybench.mm2(n)
    f.auto_DSE()
    return f


class TestSequentialSharing:
    def test_sharing_halves_multi_nest_resources(self):
        f = multi_nest_design()
        func = lower_to_affine(f)
        assert len(func.body.ops) >= 2, "need separate nests for this ablation"
        shared = HlsEstimator(share_sequential=True).estimate(func)
        private = HlsEstimator(share_sequential=False).estimate(func)
        assert private.resources.dsp >= 2 * shared.resources.dsp * 0.9
        assert private.total_cycles == shared.total_cycles  # latency unaffected

    def test_single_nest_unaffected(self):
        f = polybench.gemm(128)
        f.auto_DSE()
        func = lower_to_affine(f)
        shared = HlsEstimator(share_sequential=True).estimate(func)
        private = HlsEstimator(share_sequential=False).estimate(func)
        assert shared.resources.dsp == private.resources.dsp


class TestDataflow:
    def test_dataflow_trades_latency_for_area(self):
        f = multi_nest_design()
        func = lower_to_affine(f)
        sequential = HlsEstimator(share_sequential=False).estimate(func)
        dataflow = HlsEstimator(dataflow=True, share_sequential=False).estimate(func)
        assert dataflow.total_cycles < sequential.total_cycles
        assert dataflow.resources.dsp == sequential.resources.dsp


class TestIiSharing:
    def test_port_bound_pipeline_shares_operators(self):
        """Unpartitioned wide unroll: huge II, tiny DSP (POLSCA's row)."""
        def build(partitioned):
            with Function("ax") as f:
                i = var("i", 0, 512)
                A = placeholder("A", (512,))
                B = placeholder("B", (512,))
                s = compute("s", [i], A(i) * 2.0 + B(i), B(i))
            s.split("i", 32, "i0", "i1")
            s.pipeline("i0", 1)
            s.unroll("i1", 0)
            if partitioned:
                A.partition([32], "cyclic")
                B.partition([32], "cyclic")
            return HlsEstimator().estimate(lower_to_affine(f))

        starved = build(False)
        banked = build(True)
        assert starved.worst_ii() > 8 * (banked.worst_ii() or 1)
        assert starved.resources.dsp < banked.resources.dsp
        assert starved.total_cycles > banked.total_cycles


class TestClockRestaging:
    @pytest.mark.parametrize("clock_ns", (5.0, 10.0, 20.0))
    def test_cycles_monotone_in_clock(self, clock_ns):
        f = polybench.gemm(32)
        func = lower_to_affine(f)
        fast = HlsEstimator(clock_ns=clock_ns).estimate(func)
        ref = HlsEstimator(clock_ns=10.0).estimate(func)
        if clock_ns < 10.0:
            assert fast.total_cycles >= ref.total_cycles
        else:
            assert fast.total_cycles <= ref.total_cycles


class TestBankCapTrade:
    def test_dse_uses_ii_sharing_when_spatial_overflows(self):
        """The paper's BICG [1,32]/II=2 family: more copies at higher II
        beat fewer copies at II=1 once full banking stops fitting."""
        f = polybench.bicg(4096)
        result = f.auto_DSE()
        # a large unroll with a modest II, fitting the device
        assert result.report.worst_ii() >= 2
        total = max(c.total_parallelism for c in result.configs.values())
        assert total >= 32
        assert result.report.feasible()

