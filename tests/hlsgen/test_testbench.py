"""C co-simulation tests: generated HLS C vs the affine interpreter.

These tests compile the emitted kernel with the host C compiler and run
it on deterministic inputs -- if the checksums match the interpreter,
the *text we ship* computes what the *model we analyzed* computes.
"""

import shutil

import pytest

from repro.hlsgen.testbench import (
    checksum,
    cosimulate,
    deterministic_arrays,
    generate_testbench,
)
from repro.workloads import image, polybench, stencils

requires_cc = pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler available",
)


class TestGeneration:
    def test_testbench_contains_kernel_and_main(self):
        text = generate_testbench(polybench.gemm(8))
        assert "void gemm" in text
        assert "int main(void)" in text
        assert text.count("printf") == 3  # one hash per array

    def test_deterministic_arrays_reproducible(self):
        a = deterministic_arrays(polybench.gemm(8))
        b = deterministic_arrays(polybench.gemm(8))
        for name in a:
            assert (a[name] == b[name]).all()

    def test_seed_changes_data(self):
        a = deterministic_arrays(polybench.gemm(8), seed=1)
        b = deterministic_arrays(polybench.gemm(8), seed=2)
        assert not (a["A"] == b["A"]).all()

    def test_checksum_order_sensitive(self):
        import numpy as np

        x = np.array([1.0, 2.0], dtype=np.float32)
        y = np.array([2.0, 1.0], dtype=np.float32)
        assert checksum(x) != checksum(y)

    def test_checksum_rounds_ties_away_from_zero_like_the_c(self):
        """x * 256 landing on an exact .5 must quantize as the emitted
        testbench does (+/-0.5 then truncate), not half-to-even."""
        import numpy as np

        def reference(quantized):
            h = 2166136261
            for q in quantized:
                h = (h ^ (q & 0xFFFFFFFF)) * 16777619 % (1 << 32)
            return h

        ties = np.array([1294.5, 2.5, -2.5, 0.5, -0.5, 3.5, -3.5]) / 256.0
        assert checksum(ties.astype(np.float32)) == reference(
            [1295, 3, -3, 1, -1, 4, -4]
        )


@requires_cc
class TestCosimulation:
    def test_plain_gemm(self):
        result = cosimulate(polybench.gemm(16))
        assert result.matched, result.mismatches()

    def test_scheduled_gemm(self):
        f = polybench.gemm(16)
        s = f.get_compute("s")
        s.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1")
        s.pipeline("j0", 1)
        s.unroll("j1", 0)
        result = cosimulate(f)
        assert result.matched, result.mismatches()

    def test_dse_bicg(self):
        f = polybench.bicg(32)
        f.auto_DSE()
        result = cosimulate(f)
        assert result.matched, result.mismatches()

    def test_skewed_seidel(self):
        f = stencils.seidel(10, steps=2)
        f.auto_DSE()
        result = cosimulate(f)
        assert result.matched, result.mismatches()

    def test_fused_jacobi(self):
        f = stencils.jacobi_1d(32, steps=4)
        f.auto_DSE()
        result = cosimulate(f)
        assert result.matched, result.mismatches()

    def test_image_pipeline(self):
        f = image.blur(16)
        f.auto_DSE()
        result = cosimulate(f)
        assert result.matched, result.mismatches()

    def test_doitgen_exact_tie(self):
        # acc has one value with x * 256 == 1294.5 exactly: half-to-even
        # on the Python side used to report a false mismatch.
        from repro import workloads

        result = cosimulate(workloads.get("doitgen", 16))
        assert result.matched, result.mismatches()

    def test_guarded_ragged_split(self):
        from repro.dsl import Function, compute, placeholder, var

        with Function("rag") as f:
            i = var("i", 0, 10)
            A = placeholder("A", (10,))
            s = compute("s", [i], A(i) + 1.0, A(i))
        s.split("i", 4, "i0", "i1")  # ragged: guards in the emitted C
        result = cosimulate(f)
        assert result.matched, result.mismatches()
