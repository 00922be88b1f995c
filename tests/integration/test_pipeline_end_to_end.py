"""Integration tests: the full DSL -> HLS C pipeline on real workloads."""

import shutil

import numpy as np
import pytest

from repro.affine import interpret, simulate
from repro.dsl import Function, compute, float32, float64, int64, placeholder, uint64, var
from repro.dsl.dtypes import ALL_TYPES
from repro.dsl.expr import BinaryOp, Call, Cast
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


def _walked_reference(function, arrays):
    for stmt in function.computes:
        stmt._execute_level(0, {}, arrays)


_SCALAR_CASES = [
    pytest.param(op, dtype, id=f"{op}-{dtype}")
    for op in sorted(BinaryOp.OPS) + sorted(Call.FUNCS) + ["cast"]
    for dtype in ALL_TYPES
]
#: Combinations the emitted C is not compared on, with the reason.
_NO_COSIM = {
    ("cast", uint64): "the testbench hashes (long)(value * 256.0), undefined "
    "past 2**63, where a wrapped uint64 lands",
    ("%", float64): "the emitter spells float % as fmodf whatever the width, "
    "so a double divisor is rounded to float first and near-integer "
    "quotients take the other multiple (sqrtf / expf / logf share the "
    "spelling but stay inside the testbench's 1/256 quantization)",
}


class TestScalarSemanticsAcrossExecutors:
    """Every operator, intrinsic and cast means one thing, over every
    dtype, in every executor: the walked DSL reference, the generated
    one, the interpreter, the compiled simulator and the emitted C.  It
    caught ``/`` and ``%`` floor-dividing ``np.float32`` in the reference,
    ``Cast`` ignoring the target width, and ``exp`` / ``log`` taking
    ``math``'s double-precision route on numpy scalars."""

    EXECUTORS = {
        "walked": _walked_reference,
        "generated": lambda function, arrays: function.reference_execute(arrays),
        "interpret": lambda function, arrays: interpret(lower_to_affine(function), arrays),
        "simulate": lambda function, arrays: simulate(lower_to_affine(function), arrays),
    }

    @staticmethod
    def _kernel(op, dtype):
        """``C[i] = op(...)`` over the testbench's own inputs (floats in
        [-2, 2) on a 1/250 grid, integers in [0, 8)), shifted so that
        dividends and divisors take both signs where the type has them
        (odd integer divisors, float divisors ``k/125 - 3.5``: never
        zero), ``sqrt`` / ``log`` see positive operands and no result
        overflows ``dtype``.
        A cast reads the widest type of the target's kind, scaled so that
        the target's own width shows: f32 rounding, integer wrap-around."""
        with Function("scalar") as f:
            i = var("i", 0, 64)
            if op == "cast":
                wide = float64 if dtype.is_float else int64 if dtype.signed else uint64
                A = placeholder("A", (64,), float64 if dtype.is_float else int64)
                C = placeholder("C", (64,), wide)
                source = A(i) if dtype.is_float else (A(i) - 4) * 1234567891
                compute("S", [i], Cast(dtype, source), C(i))
                return f
            A = placeholder("A", (64,), dtype)
            B = placeholder("B", (64,), dtype)
            C = placeholder("C", (64,), dtype)
            if dtype.is_float:
                lhs, rhs, positive = A(i), B(i) * 2 + 0.5, A(i) + 2.5
            elif dtype.signed:
                lhs, rhs, positive = A(i) - 4, (B(i) - 4) * 2 + 1, A(i) + 1
            else:
                lhs, rhs, positive = A(i) + 8, B(i) + 1, A(i) + 1
            if op in BinaryOp.OPS:
                value = BinaryOp(op, lhs, rhs)
            elif op in ("min", "max"):
                value = Call(op, [lhs, rhs])
            elif op in ("sqrt", "log"):
                value = Call(op, [positive])
            elif op == "exp":
                value = Call(op, [lhs if dtype.signed else A(i) % 5])
            else:
                value = Call(op, [lhs])
            compute("S", [i], value, C(i))
        return f

    @pytest.mark.parametrize("op,dtype", _SCALAR_CASES)
    def test_reference_interpreter_and_simulator_agree(self, op, dtype):
        function = self._kernel(op, dtype)
        inputs = deterministic_arrays(function)
        outputs = {}
        for name, run in self.EXECUTORS.items():
            outputs[name] = {k: v.copy() for k, v in inputs.items()}
            run(function, outputs[name])
        want = outputs.pop("walked")["C"]
        assert not np.array_equal(want, inputs["C"])
        if op in ("/", "%") and dtype.signed:
            # The kernel must reach the signed cases C defines.
            expr = function.computes[0].expr
            lhs, rhs = (
                np.array([e.evaluate({"i": k}, inputs) for k in range(64)])
                for e in (expr.lhs, expr.rhs)
            )
            assert (lhs < 0).any() and (rhs < 0).any() and (rhs > 0).any()
            assert (want != 0).any() if op == "/" else (want < 0).any()
        for name, arrays in outputs.items():
            assert arrays["C"].dtype == want.dtype, name
            assert arrays["C"].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("op,numpy_op", [("/", np.divide), ("%", np.fmod)])
    def test_float32_division_is_true_division(self, op, numpy_op):
        function = self._kernel(op, float32)
        arrays = deterministic_arrays(function)
        function.reference_execute(arrays)
        divisor = arrays["B"] * np.float32(2) + np.float32(0.5)
        assert np.array_equal(arrays["C"], numpy_op(arrays["A"], divisor))

    @pytest.mark.skipif(
        shutil.which("gcc") is None and shutil.which("cc") is None,
        reason="no C compiler available",
    )
    @pytest.mark.parametrize("op,dtype", _SCALAR_CASES)
    def test_emitted_c_agrees(self, op, dtype):
        if (op, dtype) in _NO_COSIM:
            pytest.skip(_NO_COSIM[op, dtype])
        result = cosimulate(self._kernel(op, dtype))
        assert result.matched, result.mismatches()
