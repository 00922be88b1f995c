"""Compiled simulator tests: bit-identity with the interpreter.

:func:`repro.affine.compile.simulate` promises results *bit-identical*
to :func:`repro.affine.interp.interpret` -- not merely close.  That
contract is what makes the fuzzer's exact ``np.array_equal`` comparison
sound, so this suite sweeps every workload family (untransformed and
transformed) asserting exact equality, and exercises the compiler's
introspection surface: kernel stats, the interpreter fallback, the
fingerprint cache, and the ``REPRO_SIM_REFERENCE`` escape hatch.
"""

import numpy as np
import pytest

from repro.affine import (
    CompiledKernel,
    compile_func,
    interpret,
    reference_mode,
    set_reference_mode,
    simulate,
)
from repro.affine import compile as _compile
from repro.dsl import Function, compute, float32, placeholder, var
from repro.isl import intern as _intern
from repro.workloads import dnn, image, polybench, polybench_extra, stencils


def check_bit_identity(function, seed=0):
    """Compiled simulation must equal the interpreter bit-for-bit."""
    func = function.lower()
    interpreted = function.allocate_arrays(seed=seed)
    interpret(func, interpreted)
    simulated = function.allocate_arrays(seed=seed)
    simulate(func, simulated)
    for name in interpreted:
        assert np.array_equal(interpreted[name], simulated[name]), name
    return compile_func(func)


class TestWorkloadSweep:
    """Every workload family, exact equality."""

    @pytest.mark.parametrize("name", list(polybench.SUITE))
    def test_polybench(self, name):
        check_bit_identity(polybench.SUITE[name](8))

    @pytest.mark.parametrize("name", list(polybench_extra.EXTRA_SUITE))
    def test_polybench_extra(self, name):
        check_bit_identity(polybench_extra.EXTRA_SUITE[name](8))

    @pytest.mark.parametrize("name", list(stencils.SUITE))
    def test_stencils(self, name):
        check_bit_identity(stencils.SUITE[name](8))

    @pytest.mark.parametrize("name", list(image.SUITE))
    def test_image(self, name):
        check_bit_identity(image.SUITE[name](12))

    @pytest.mark.parametrize("name", list(dnn.SUITE))
    def test_dnn(self, name):
        check_bit_identity(dnn.SUITE[name](4, channel_scale=0.05))


class TestTransformedPrograms:
    def test_tiled_skewed_gemm(self):
        f = polybench.gemm(16)
        s = f.get_compute("s")
        s.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1")
        s.skew("i1", "j1", 1, "i1s", "j1s")
        check_bit_identity(f)

    def test_interchanged_reversed_gemm(self):
        f = polybench.gemm(8)
        s = f.get_compute("s")
        s.interchange("k", "j")
        s.reverse("i", "ir")
        check_bit_identity(f)

    def test_skewed_interchanged_seidel(self):
        f = stencils.seidel(8, steps=2)
        f.get_compute("S").skew("i", "j", 1, "iw", "jw")
        f.get_compute("S").interchange("iw", "jw")
        check_bit_identity(f)


class TestKernelStats:
    def test_gemm_vectorizes(self):
        kernel = check_bit_identity(polybench.gemm(8))
        stats = kernel.stats.as_dict()
        assert stats["fallback"] is None
        assert stats["vector_nests"] >= 1
        # i and j grid; the k reduction stays a scalar loop.
        assert stats["vector_axes"] >= 2
        assert stats["scalar_loops"] >= 1

    def test_seidel_recurrence_stays_scalar(self):
        # Seidel reads neighbours of the array it writes (in place), so
        # read-own-cell fails and the whole band compiles to scalar
        # loops -- but never falls back to the interpreter.
        kernel = check_bit_identity(stencils.seidel(8, steps=2))
        stats = kernel.stats.as_dict()
        assert stats["fallback"] is None
        assert stats["vector_nests"] == 0
        assert stats["scalar_loops"] >= 2

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_hoisted_inner_loop_keeps_each_cells_order(self, n):
        # k is a value, so it stays a scalar loop; i's only store position
        # i + k also carries k, nested inside i.  Hoisting k outside an i
        # grid would write cell c in increasing k instead of increasing i
        # and round the float32 sums differently.  Declared as [k, i], k
        # is outside i anyway, and i stays a grid.
        def build(outer_k):
            with Function("hoist") as f:
                i, k = var("i", 0, n), var("k", 0, n)
                A = placeholder("A", (n,), float32)
                B = placeholder("B", (n,), float32)
                P = placeholder("P", (2 * n,), float32)
                iters = [k, i] if outer_k else [i, k]
                compute("s", iters, P(i + k) + A(i) * B(k) * k, P(i + k))
            return f

        for outer_k, axes in ((False, 0), (True, 1)):
            function = build(outer_k)
            assert check_bit_identity(function, seed=2).stats.vector_axes == axes
            reference = function.allocate_arrays(seed=2)
            function.reference_execute(reference)
            interpreted = function.allocate_arrays(seed=2)
            interpret(function.lower(), interpreted)
            assert reference["P"].tobytes() == interpreted["P"].tobytes()

    def test_compiled_source_is_inspectable(self):
        kernel = compile_func(polybench.gemm(8).lower())
        assert "def _kernel(arrays):" in kernel.source
        assert "_np.arange" in kernel.source
        assert "compiled" in repr(kernel)


class TestKernelCache:
    def test_same_fingerprint_compiles_once(self):
        context = _intern.active()
        context.kernel_fns.clear()
        func_a = polybench.gemm(8).lower()
        func_b = polybench.gemm(8).lower()
        kernel_a = compile_func(func_a)
        kernel_b = compile_func(func_b)
        assert kernel_a is kernel_b

    def test_distinct_sizes_distinct_kernels(self):
        assert compile_func(polybench.gemm(8).lower()) is not compile_func(
            polybench.gemm(12).lower()
        )

    def test_cache_lives_on_intern_context(self):
        context = _intern.active()
        context.kernel_fns.clear()
        compile_func(polybench.gemm(8).lower())
        assert len(context.kernel_fns) == 1


class TestInterpreterFallback:
    def test_unsupported_construct_falls_back(self, monkeypatch):
        # Force the builder to reject everything: the kernel must still
        # run, bit-identically, through the interpreter.
        def refuse(self):
            raise _compile.UnsupportedConstruct("forced by test")

        monkeypatch.setattr(_compile._Builder, "build", refuse)
        _intern.active().kernel_fns.clear()
        function = polybench.gemm(8)
        func = function.lower()
        kernel = compile_func(func)
        assert kernel.stats.fallback == "forced by test"
        assert "interpreted" in repr(kernel)
        interpreted = function.allocate_arrays(seed=0)
        interpret(func, interpreted)
        simulated = function.allocate_arrays(seed=0)
        simulate(func, simulated)
        assert all(
            np.array_equal(interpreted[n], simulated[n]) for n in interpreted
        )
        _intern.active().kernel_fns.clear()


class TestReferenceMode:
    def test_toggle_roundtrip(self):
        previous = set_reference_mode(True)
        try:
            assert reference_mode()
            function = polybench.gemm(8)
            func = function.lower()
            interpreted = function.allocate_arrays(seed=0)
            interpret(func, interpreted)
            simulated = function.allocate_arrays(seed=0)
            simulate(func, simulated)  # runs through the interpreter
            assert all(
                np.array_equal(interpreted[n], simulated[n]) for n in interpreted
            )
        finally:
            set_reference_mode(previous)
        assert reference_mode() == previous

    def test_env_variable_is_the_default(self):
        # The module-level default tracks REPRO_SIM_REFERENCE at import;
        # this process was started without it.
        import os

        if os.environ.get("REPRO_SIM_REFERENCE", "") in ("", "0"):
            assert not reference_mode()


class TestSimulateContract:
    def test_missing_buffer_raises(self):
        func = polybench.gemm(8).lower()
        with pytest.raises(KeyError, match="missing buffer"):
            simulate(func, {})

    def test_in_place_update(self):
        function = polybench.gemm(8)
        func = function.lower()
        arrays = function.allocate_arrays(seed=3)
        handles = {name: arr for name, arr in arrays.items()}
        simulate(func, arrays)
        for name in arrays:
            assert arrays[name] is handles[name]

    def test_compiled_kernel_export(self):
        from repro import CompiledKernel as exported

        assert exported is CompiledKernel
