"""Integration tests: the full DSL -> HLS C pipeline on real workloads."""

import shutil

import numpy as np
import pytest

from repro.affine import interpret, simulate
from repro.dsl import Function, compute, float32, int32, placeholder, var
from repro.hlsgen import generate_hls_c
from repro.hlsgen.testbench import cosimulate, deterministic_arrays
from repro.pipeline import (
    analyze,
    compile_to_hls_c,
    estimate,
    lower_to_affine,
    lower_to_polyhedral,
)
from repro.workloads import image, polybench, stencils


class TestPipelineStages:
    def test_all_levels_reachable(self):
        f = polybench.gemm(8)
        graph = analyze(f)
        assert set(graph.nodes) == {"s"}
        program = lower_to_polyhedral(f)
        assert program.statement("s").depth() == 3
        func_op = lower_to_affine(f)
        assert len(func_op.loops()) == 3
        code = compile_to_hls_c(f)
        assert "void gemm" in code

    def test_function_convenience_methods(self):
        f = polybench.gemm(8)
        assert "void gemm" in f.codegen()
        assert f.lower().name == "gemm"
        assert f.estimate().total_cycles > 0


class TestDsePipelineCorrectness:
    """auto-DSE then full lowering must preserve semantics everywhere."""

    CASES = [
        ("gemm", lambda: polybench.gemm(16)),
        ("bicg", lambda: polybench.bicg(16)),
        ("gesummv", lambda: polybench.gesummv(16)),
        ("2mm", lambda: polybench.mm2(8)),
        ("3mm", lambda: polybench.mm3(8)),
        ("jacobi-1d", lambda: stencils.jacobi_1d(16, steps=4)),
        ("jacobi-2d", lambda: stencils.jacobi_2d(10, steps=2)),
        ("heat-1d", lambda: stencils.heat_1d(16, steps=4)),
        ("seidel", lambda: stencils.seidel(8, steps=2)),
        ("blur", lambda: image.blur(12)),
        ("edgedetect", lambda: image.edge_detect(12)),
    ]

    @pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
    def test_dse_preserves_semantics(self, name, factory):
        reference_fn = factory()
        expected = reference_fn.allocate_arrays(seed=17)
        reference_fn.reference_execute(expected)

        optimized_fn = factory()
        optimized_fn.auto_DSE()
        got = optimized_fn.allocate_arrays(seed=17)
        interpret(lower_to_affine(optimized_fn), got)
        for array in expected:
            np.testing.assert_allclose(
                got[array], expected[array], rtol=1e-3, atol=1e-5, err_msg=array
            )

    @pytest.mark.parametrize("name,factory", CASES[:5], ids=[c[0] for c in CASES[:5]])
    def test_dse_emits_valid_hls_c(self, name, factory):
        f = factory()
        f.auto_DSE()
        code = compile_to_hls_c(f)
        assert "#pragma HLS pipeline" in code
        assert code.count("{") == code.count("}")


class TestEstimatorConsistency:
    def test_baseline_slower_than_optimized(self):
        base = estimate(polybench.gemm(64))
        f = polybench.gemm(64)
        f.auto_DSE()
        assert estimate(f).total_cycles < base.total_cycles

    def test_report_consistent_with_dse_report(self):
        f = polybench.gemm(64)
        result = f.auto_DSE()
        fresh = estimate(f)
        assert fresh.total_cycles == result.report.total_cycles
        assert fresh.resources.dsp == result.report.resources.dsp


class TestUserScheduleEquivalence:
    def test_manual_primitives_equal_dse_design(self):
        """Paper Fig. 16: manual primitives can reproduce the autoDSE design."""
        auto_fn = polybench.gemm(32)
        result = auto_fn.auto_DSE()
        auto_cycles = result.report.total_cycles

        manual_fn = polybench.gemm(32)
        for directive in result.schedule:
            manual_fn.schedule.add(directive)
        for name, scheme in (
            (p.name, p.partition_scheme) for p in auto_fn.placeholders()
        ):
            if scheme is not None:
                target = next(q for q in manual_fn.placeholders() if q.name == name)
                target.partition(list(scheme.factors), scheme.kind)
        assert estimate(manual_fn).total_cycles == auto_cycles


class TestMultiFunctionIsolation:
    def test_functions_do_not_leak_state(self):
        f1 = polybench.gemm(8)
        f1.auto_DSE()
        f2 = polybench.gemm(8)
        assert len(f2.schedule) == 0
        assert all(p.partition_scheme is None for p in f2.placeholders())


class TestDivModAcrossExecutors:
    """``/`` and ``%`` mean C's operators in every executor: the DSL
    reference, the interpreter, the compiled simulator and the emitted C.
    The reference used to test ``isinstance(x, float)``, which is false
    for ``np.float32``, and floor-divided f32 operands."""

    @staticmethod
    def _kernel(dtype, divisor_shift):
        # Shifts make dividends and divisors of both signs (and no zero
        # divisor) out of the testbench's own inputs: floats in [-2, 2),
        # integers in [0, 8).
        with Function("divmod") as f:
            i = var("i", 0, 64)
            A = placeholder("A", (64,), dtype)
            B = placeholder("B", (64,), dtype)
            Q = placeholder("Q", (64,), dtype)
            R = placeholder("R", (64,), dtype)
            dividend = A(i) if dtype.is_float else A(i) - 4
            compute("Sq", [i], dividend / (B(i) - divisor_shift), Q(i))
            compute("Sr", [i], dividend % (B(i) + divisor_shift), R(i))
        return f

    CASES = [("f32", float32, 2.5), ("i32", int32, 9)]

    @pytest.mark.parametrize("name,dtype,shift", CASES, ids=[c[0] for c in CASES])
    def test_reference_interpreter_and_simulator_agree(self, name, dtype, shift):
        function = self._kernel(dtype, shift)
        inputs = deterministic_arrays(function)
        assert (inputs["A"] - (0 if dtype.is_float else 4) < 0).any()
        expected = {k: v.copy() for k, v in inputs.items()}
        function.reference_execute(expected)
        assert (expected["Q"] != 0).any() and (expected["R"] < 0).any()
        for run in (interpret, simulate):
            actual = {k: v.copy() for k, v in inputs.items()}
            run(lower_to_affine(function), actual)
            for array in ("Q", "R"):
                assert np.array_equal(actual[array], expected[array]), (run, array)

    def test_float32_division_is_true_division(self):
        function = self._kernel(float32, 2.5)
        arrays = deterministic_arrays(function)
        function.reference_execute(arrays)
        assert np.array_equal(arrays["Q"], arrays["A"] / (arrays["B"] - np.float32(2.5)))
        assert np.array_equal(
            arrays["R"], np.fmod(arrays["A"], arrays["B"] + np.float32(2.5))
        )

    @pytest.mark.skipif(
        shutil.which("gcc") is None and shutil.which("cc") is None,
        reason="no C compiler available",
    )
    @pytest.mark.parametrize("name,dtype,shift", CASES, ids=[c[0] for c in CASES])
    def test_emitted_c_agrees(self, name, dtype, shift):
        result = cosimulate(self._kernel(dtype, shift))
        assert result.matched, result.mismatches()
