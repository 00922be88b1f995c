"""Tests for the extended kernel suite: semantics + DSE robustness."""

import numpy as np
import pytest

from repro.affine import interpret
from repro.pipeline import estimate, lower_to_affine
from repro.workloads import polybench_extra as extra


class TestSemantics:
    def test_atax(self):
        f = extra.atax(8)
        arrays = f.allocate_arrays(seed=0)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        tmp = ref["tmp"] + ref["A"] @ ref["x"]
        want = ref["y"] + ref["A"].T @ tmp
        assert np.allclose(arrays["y"], want, rtol=1e-3)

    def test_mvt(self):
        f = extra.mvt(8)
        arrays = f.allocate_arrays(seed=1)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        assert np.allclose(arrays["x1"], ref["x1"] + ref["A"] @ ref["y1"], rtol=1e-3)
        assert np.allclose(arrays["x2"], ref["x2"] + ref["A"].T @ ref["y2"], rtol=1e-3)

    def test_syrk(self):
        f = extra.syrk(8)
        arrays = f.allocate_arrays(seed=2)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        want = ref["C"] + ref["A"] @ ref["A"].T
        assert np.allclose(arrays["C"], want, rtol=1e-3)

    def test_doitgen(self):
        f = extra.doitgen(4, 4, 4)
        arrays = f.allocate_arrays(seed=3)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        want = ref["acc"] + np.einsum("rqs,sp->rqp", ref["a"], ref["c4"])
        assert np.allclose(arrays["acc"], want, rtol=1e-3)

    def test_conv2d(self):
        f = extra.conv2d(10, 3)
        arrays = f.allocate_arrays(seed=4)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        want = ref["out"].copy().astype(np.float64)
        for i in range(8):
            for j in range(8):
                want[i, j] += (
                    ref["img"][i:i + 3, j:j + 3].astype(np.float64) * ref["kern"]
                ).sum()
        assert np.allclose(arrays["out"], want, rtol=1e-3)

    def test_trisolv_is_serial_recurrence(self):
        from repro.depgraph import RAW, analyze_compute

        f = extra.trisolv(8)
        carried = analyze_compute(f.get_compute("S")).carried
        assert any(d.kind == RAW for d in carried), "x feeds back across i"


class TestDseOnExtraKernels:
    KERNELS = ["atax", "mvt", "syrk", "doitgen", "conv2d"]

    @pytest.mark.parametrize("name", KERNELS)
    def test_dse_improves(self, name):
        factory = extra.EXTRA_SUITE[name]
        base = estimate(factory())
        f = factory()
        result = f.auto_DSE()
        assert result.report.total_cycles < base.total_cycles
        assert result.report.feasible()

    @pytest.mark.parametrize("name", KERNELS)
    def test_dse_preserves_semantics(self, name):
        factory = extra.EXTRA_SUITE[name]
        reference_fn = factory()
        expected = reference_fn.allocate_arrays(seed=7)
        reference_fn.reference_execute(expected)
        f = factory()
        f.auto_DSE()
        got = f.allocate_arrays(seed=7)
        interpret(lower_to_affine(f), got)
        for array in expected:
            np.testing.assert_allclose(
                got[array], expected[array], rtol=1e-3, atol=1e-5, err_msg=array
            )

    def test_trisolv_dse_does_not_break(self):
        """A fully-serial recurrence must survive the DSE unharmed."""
        reference_fn = extra.trisolv(8)
        expected = reference_fn.allocate_arrays(seed=8)
        reference_fn.reference_execute(expected)
        f = extra.trisolv(8)
        f.auto_DSE()
        got = f.allocate_arrays(seed=8)
        interpret(lower_to_affine(f), got)
        np.testing.assert_allclose(got["x"], expected["x"], rtol=1e-3, atol=1e-5)

    def test_conv2d_reduction_dims_detected(self):
        from repro.depgraph import analyze_compute

        f = extra.conv2d(16, 3)
        analysis = analyze_compute(f.get_compute("S"))
        assert set(analysis.reduction_dims) == {"r", "c"}
