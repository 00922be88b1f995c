"""Unit tests for the virtual HLS estimator (latency, II, resources)."""

import numpy as np
import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.dsl.placeholder import PartitionScheme
from repro.hls import DEFAULT_DEVICE, HlsEstimator
from repro.hls.estimator import _unique_rows
from repro.isl.affine import AffineExpr
from repro.isl.intern import set_reference_mode
from repro.pipeline import estimate, lower_to_affine


def gemm(n):
    with Function("gemm") as f:
        i = var("i", 0, n)
        j = var("j", 0, n)
        k = var("k", 0, n)
        A = placeholder("A", (n, n))
        B = placeholder("B", (n, n))
        C = placeholder("C", (n, n))
        s = compute("s", [k, i, j], A(i, j) + B(i, k) * C(k, j), A(i, j))
    return f, s, (A, B, C)


def elementwise(n):
    with Function("ew") as f:
        i = var("i", 0, n)
        A = placeholder("A", (n,))
        B = placeholder("B", (n,))
        s = compute("s", [i], A(i) * 2.0, B(i))
    return f, s, (A, B)


class TestSequentialBaseline:
    def test_latency_scales_with_trip_counts(self):
        f8, _, _ = gemm(8)
        f16, _, _ = gemm(16)
        r8, r16 = estimate(f8), estimate(f16)
        ratio = r16.total_cycles / r8.total_cycles
        assert 7.0 < ratio < 9.0  # 2^3 = 8 with small overhead noise

    def test_baseline_shares_operators(self):
        f, _, _ = gemm(64)
        r = estimate(f)
        # One MAC shared across all iterations: a handful of DSPs.
        assert r.resources.dsp <= 10

    def test_loop_reports_cover_nest(self):
        f, _, _ = gemm(8)
        r = estimate(f)
        assert [l.iterator for l in r.loops] == ["k", "i", "j"]
        assert all(not l.pipelined for l in r.loops)
        assert r.loops[0].trip_count == 8


class TestPipeline:
    def test_pipeline_reduces_latency(self):
        f0, _, _ = elementwise(1024)
        r0 = estimate(f0)
        f1, s, _ = elementwise(1024)
        s.pipeline("i", 1)
        r1 = estimate(f1)
        assert r1.total_cycles < r0.total_cycles / 3

    def test_achieved_ii_reported(self):
        f, s, _ = elementwise(256)
        s.pipeline("i", 1)
        r = estimate(f)
        (loop,) = r.loops
        assert loop.pipelined
        assert loop.achieved_ii == 1

    def test_reduction_carried_outside_pipeline_gives_ii_1(self):
        """Paper Fig. 6: pipeline j0 with k outermost -> II = 1."""
        f, s, (A, B, C) = gemm(32)
        s.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1")
        s.pipeline("j0", 1)
        s.unroll("i1", 0)
        s.unroll("j1", 0)
        A.partition([4, 4], "cyclic")
        B.partition([4, 1], "cyclic")
        C.partition([1, 4], "cyclic")
        r = estimate(f)
        assert r.worst_ii() == 1

    def test_reduction_carried_at_pipelined_loop_hurts_ii(self):
        """Pipelining the reduction loop itself forces a large II."""
        with Function("dot") as f:
            i = var("i", 0, 256)
            A = placeholder("A", (256,))
            B = placeholder("B", (256,))
            acc = placeholder("acc", (1,))
            s = compute("s", [i], acc(0) + A(i) * B(i), acc(0))
        s.pipeline("i", 1)
        r = estimate(f)
        assert r.worst_ii() > 1

    def test_pipeline_fully_unrolls_inner_loops(self):
        """Vitis semantics: pipelining a loop unrolls everything inside.

        Without partitioning the 256 unrolled copies are port-bound, so
        the II explodes and the operators timeshare down to a few units.
        """
        f, s, (A, B, C) = gemm(16)
        s.pipeline("k", 1)  # i and j (16x16 = 256 copies) get unrolled
        r = estimate(f)
        assert r.worst_ii() > 64  # port-starved
        # Sharing across the huge II collapses compute resources.
        assert r.resources.dsp <= 20

    def test_pipeline_unroll_with_partitioning_is_spatial(self):
        """The same full unroll with complete partitioning keeps copies."""
        f, s, (A, B, C) = gemm(16)
        s.pipeline("k", 1)
        for arr in (A, B, C):
            arr.partition([16, 16], "cyclic")
        r = estimate(f)
        # Ports no longer bound the II; the float-accumulate recurrence
        # carried by k does (load + add + store latency).
        assert 2 <= r.worst_ii() <= 10
        assert r.resources.dsp > 100  # far more spatial than the port-bound case


class TestMemoryPorts:
    def _unrolled(self, n, partition_factor):
        f, s, (A, B) = elementwise(n)
        s.split("i", 16, "i0", "i1")
        s.pipeline("i0", 1)
        s.unroll("i1", 0)
        if partition_factor:
            A.partition([partition_factor], "cyclic")
            B.partition([partition_factor], "cyclic")
        return estimate(f)

    def test_unpartitioned_unroll_is_port_bound(self):
        r = self._unrolled(256, None)
        # 16 distinct elements on one dual-ported bank -> II >= 8
        assert r.worst_ii() >= 8

    def test_matching_cyclic_partition_restores_ii(self):
        r = self._unrolled(256, 16)
        assert r.worst_ii() == 1

    def test_partial_partition_partial_relief(self):
        full = self._unrolled(256, 16)
        half = self._unrolled(256, 4)
        none = self._unrolled(256, None)
        assert full.worst_ii() < half.worst_ii() < none.worst_ii()

    def test_block_partition_contiguous_unroll_conflicts(self):
        """Block partitioning misaligns with stride-1 unroll access."""
        f, s, (A, B) = elementwise(256)
        s.split("i", 16, "i0", "i1")
        s.pipeline("i0", 1)
        s.unroll("i1", 0)
        A.partition([16], "block")
        B.partition([16], "block")
        r_block = estimate(f)
        r_cyclic = self._unrolled(256, 16)
        assert r_block.worst_ii() > r_cyclic.worst_ii()


class TestResourceSharing:
    def test_large_ii_shares_units(self):
        """A port-bound pipeline timeshares its operators (POLSCA effect)."""
        bound = self._estimate_with_partition(None)
        fast = self._estimate_with_partition(16)
        assert bound.worst_ii() > fast.worst_ii()
        assert bound.resources.dsp < fast.resources.dsp

    @staticmethod
    def _estimate_with_partition(factor):
        with Function("axpy") as f:
            i = var("i", 0, 512)
            A = placeholder("A", (512,))
            B = placeholder("B", (512,))
            s = compute("s", [i], A(i) * 2.0 + B(i), B(i))
        s.split("i", 16, "i0", "i1")
        s.pipeline("i0", 1)
        s.unroll("i1", 0)
        if factor:
            A.partition([factor], "cyclic")
            B.partition([factor], "cyclic")
        return estimate(f)

    def test_unroll_multiplies_resources(self):
        f1, s1, _ = elementwise(256)
        s1.split("i", 16, "i0", "i1")
        s1.pipeline("i0", 1)
        s1.unroll("i1", 0)
        for p in f1.placeholders():
            p.partition([16], "cyclic")
        r_unrolled = estimate(f1)

        f2, s2, _ = elementwise(256)
        s2.pipeline("i", 1)
        r_plain = estimate(f2)
        assert r_unrolled.resources.dsp >= r_plain.resources.dsp
        assert r_unrolled.total_cycles < r_plain.total_cycles


class TestSequentialUnroll:
    def test_unroll_without_pipeline(self):
        f0, s0, _ = elementwise(256)
        r0 = estimate(f0)
        f1, s1, (A, B) = elementwise(256)
        s1.unroll("i", 8)
        A.partition([8], "cyclic")
        B.partition([8], "cyclic")
        r1 = estimate(f1)
        assert r1.total_cycles < r0.total_cycles
        assert r1.resources.lut > r0.resources.lut


class TestSkewedLoops:
    def test_variable_bounds_estimated_conservatively(self):
        with Function("sk") as f:
            i = var("i", 0, 8)
            j = var("j", 0, 8)
            A = placeholder("A", (8, 8))
            s = compute("s", [i, j], A(i, j) + 1.0, A(i, j))
        s.skew("i", "j", 1, "ip", "jp")
        r = estimate(f)
        assert r.total_cycles > 0
        outer = r.loops[0]
        assert outer.trip_count == 8


class TestRecurrenceMemo:
    """The recurrence II depends on a statement's arithmetic: two stores
    with equal accesses but different operators must not share it."""

    @staticmethod
    def _fused(first, second):
        """``A[i] = A[i-1] op B[i]`` twice, after one another in ``t``."""
        ops = {"+": lambda a, b: a + b, "*": lambda a, b: a * b}
        with Function("rec") as f:
            t = var("t", 0, 4)
            i = var("i", 1, 16)
            A = placeholder("A", (16,))
            B = placeholder("B", (16,))
            s1 = compute("S1", [t, i], ops[first](A(i - 1), B(i)), A(i))
            s2 = compute("S2", [t, i], ops[second](A(i - 1), B(i)), A(i))
            s2.after(s1, t)
            s1.pipeline(i, 1)
            s2.pipeline(i, 1)
        return lower_to_affine(f)

    @staticmethod
    def _iis(report):
        return [l.achieved_ii for l in report.loops if l.pipelined]

    def test_operators_keep_their_own_ii(self):
        estimator = HlsEstimator()
        assert self._iis(estimator.estimate(self._fused("+", "*"))) == [7, 6]
        # A reused estimator carries no II into the next function.
        assert self._iis(estimator.estimate(self._fused("*", "+"))) == [6, 7]
        fresh = HlsEstimator(memoize_reports=False)
        assert self._iis(fresh.estimate(self._fused("*", "+"))) == [6, 7]


class TestEstimatorConfig:
    def test_custom_device(self):
        f, _, _ = gemm(8)
        small = DEFAULT_DEVICE.scaled(0.1)
        report = HlsEstimator(device=small).estimate(lower_to_affine(f))
        assert report.device is small

    def test_clock_scaling_restages_operators(self):
        """A faster clock needs more pipeline stages per operator, so the
        cycle count grows and wall-clock latency improves sublinearly."""
        f, _, _ = gemm(8)
        r5 = HlsEstimator(clock_ns=5.0).estimate(lower_to_affine(f))
        r10 = HlsEstimator(clock_ns=10.0).estimate(lower_to_affine(f))
        assert r5.total_cycles > r10.total_cycles
        assert r5.latency_us < r10.latency_us  # still a net win
        assert r5.latency_us > r10.latency_us / 2  # but not a free 2x

    def test_slow_clock_fewer_cycles(self):
        f, _, _ = gemm(8)
        r20 = HlsEstimator(clock_ns=20.0).estimate(lower_to_affine(f))
        r10 = HlsEstimator(clock_ns=10.0).estimate(lower_to_affine(f))
        assert r20.total_cycles <= r10.total_cycles

    def test_reference_clock_identity(self):
        """At the 10 ns characterization clock, scaling is a no-op."""
        f, _, _ = gemm(8)
        a = HlsEstimator(clock_ns=10.0).estimate(lower_to_affine(f))
        b = HlsEstimator().estimate(lower_to_affine(f))
        assert a.total_cycles == b.total_cycles


class TestBankPressureDedupe:
    """The sort-based row dedupe behind the vectorized bank-pressure count."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[3, -1], [-2, 5], [3, -1], [-2, -7], [0, 0], [-2, 5], [3, -1]],
            [[-4], [2], [-4], [0], [2], [-9]],  # one column
            [[7, -7, 7]],  # one row
            np.zeros((0, 3), dtype=np.int64),  # zero rows
            np.random.default_rng(7).integers(-3, 4, size=(300, 3)),
        ],
        ids=["negatives-and-duplicates", "one-column", "one-row", "zero-rows", "random"],
    )
    def test_unique_rows_is_numpy_unique(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        got_rows, got_counts = _unique_rows(rows)
        want_rows, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_counts, want_counts)

    @pytest.mark.parametrize(
        "scheme",
        [None, PartitionScheme((4, 3), "cyclic"), PartitionScheme((4, 1), "block"),
         PartitionScheme((16, 12), "complete")],
        ids=["unpartitioned", "cyclic", "block", "complete"],
    )
    def test_vectorized_count_is_the_scalar_loop(self, scheme):
        A = placeholder("A", (16, 12))
        i, j = AffineExpr.var("i"), AffineExpr.var("j")
        # Negative and repeated elements: copies that fold onto one port.
        index_lists = [[i + j * 2 - 3, j], [i, j - 1], [i + 1, j * 0 + 2], [i, j - 1]]
        args = (A, index_lists, ["i", "j"], {"i": 8, "j": 6}, scheme)
        fast = HlsEstimator()._bank_pressure_uncached(*args)
        previous = set_reference_mode(True)  # forces the scalar loop
        try:
            assert HlsEstimator()._bank_pressure_uncached(*args) == fast
        finally:
            set_reference_mode(previous)
