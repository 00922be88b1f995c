"""Unit tests for the affine IR structural verifier, one per invariant."""

import pytest

from repro.affine.ir import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    Block,
    ConstantOp,
    FuncOp,
)
from repro.affine.passes import Pass, PassError, PassManager, verify_func
from repro.diagnostics import DiagnosticError
from repro.dsl.placeholder import PartitionScheme, Placeholder
from repro.hlsgen.codegen import generate_hls_c
from repro.isl.affine import AffineExpr
from repro.isl.sets import LoopBound
from repro.pipeline import lower_to_affine
from repro.workloads import polybench

pytestmark = pytest.mark.diagnostics

e = AffineExpr


def loop(iterator: str, lo: int, hi: int) -> AffineForOp:
    return AffineForOp(
        iterator,
        [LoopBound(e.const(lo), 1, True)],
        [LoopBound(e.const(hi), 1, False)],
    )


def store(array: Placeholder, *dims: str) -> AffineStoreOp:
    return AffineStoreOp(
        array, [e({d: 1}) for d in dims], ConstantOp(1.0)
    )


def simple_func():
    """for i in [0,7]: for j in [0,7]: A[i][j] = 1.0"""
    A = Placeholder("A", (8, 8))
    func = FuncOp("f", [A])
    outer, inner = loop("i", 0, 7), loop("j", 0, 7)
    inner.body.append(store(A, "i", "j"))
    outer.body.append(inner)
    func.body.append(outer)
    return func, A, outer, inner


def error_codes(func):
    return [d.code for d in verify_func(func).errors()]


class TestInvariants:
    def test_clean_function_verifies(self):
        func, *_ = simple_func()
        engine = verify_func(func)
        assert not engine.has_errors and not engine.warnings()

    def test_ver001_shadowed_iterator(self):
        func, A, outer, inner = simple_func()
        inner.iterator = "i"  # shadows the enclosing loop
        inner.body.ops[0].indices = [e({"i": 1}), e({"i": 1})]
        assert "VER001" in error_codes(func)

    def test_ver002_store_rank_mismatch(self):
        func, A, outer, inner = simple_func()
        inner.body.ops[0].indices.append(e({"j": 1}))  # rank 2, 3 indices
        assert "VER002" in error_codes(func)

    def test_ver002_load_rank_mismatch(self):
        func, A, outer, inner = simple_func()
        load = AffineLoadOp(A, [e({"i": 1}), e({"j": 1})])
        load.indices = [e({"i": 1})]
        inner.body.ops[0].value = load
        assert "VER002" in error_codes(func)

    def test_ver003_dead_iterator_reference(self):
        func, A, outer, inner = simple_func()
        inner.body.ops[0].indices = [e({"i": 1}), e({"k": 1})]
        engine = verify_func(func)
        assert [d.code for d in engine.errors()] == ["VER003"]
        assert "'k'" in engine.errors()[0].message

    @pytest.mark.parametrize(
        "attr, value",
        [
            ("pipeline", 0),
            ("pipeline", "yes"),
            ("unroll", -2),
            ("unroll", 2.5),
            ("dependence", "not-a-list"),
            ("dependence", [1, 2]),
        ],
    )
    def test_ver004_malformed_loop_pragma(self, attr, value):
        func, A, outer, inner = simple_func()
        inner.attributes[attr] = value
        assert error_codes(func) == ["VER004"]

    def test_ver004_partition_scheme_rank_mismatch(self):
        func, *_ = simple_func()
        func.attributes["partitions"] = {"A": PartitionScheme((2,), "cyclic")}
        assert error_codes(func) == ["VER004"]

    def test_ver004_partition_for_unknown_array(self):
        func, *_ = simple_func()
        func.attributes["partitions"] = {"Z": PartitionScheme((2, 2), "cyclic")}
        assert error_codes(func) == ["VER004"]

    def test_ver004_partitions_not_a_dict(self):
        func, *_ = simple_func()
        func.attributes["partitions"] = [("A", (2, 2))]
        assert error_codes(func) == ["VER004"]

    def test_ver005_unexpected_op_in_block(self):
        func, A, outer, inner = simple_func()
        inner.body.append(ConstantOp(3.0))  # a bare value op is not a statement
        assert error_codes(func) == ["VER005"]

    def test_ver005_loop_without_bounds(self):
        func, A, outer, inner = simple_func()
        inner.lowers = []
        assert "VER005" in error_codes(func)

    def test_ver006_zero_trip_loop_is_a_warning(self):
        func, A, outer, inner = simple_func()
        inner.uppers = [LoopBound(e.const(-1), 1, False)]
        engine = verify_func(func)
        assert not engine.has_errors
        assert [d.code for d in engine.warnings()] == ["VER006"]

    def test_all_errors_collected_in_one_walk(self):
        func, A, outer, inner = simple_func()
        inner.attributes["pipeline"] = 0
        inner.body.ops[0].indices = [e({"i": 1}), e({"k": 1})]
        collected = error_codes(func)
        assert "VER004" in collected and "VER003" in collected


class TestCodegenGuard:
    def test_codegen_refuses_broken_ir(self):
        # Ill-formed IR must not become silently wrong HLS C.
        func, A, outer, inner = simple_func()
        inner.body.ops[0].indices.append(e({"j": 1}))
        with pytest.raises(DiagnosticError) as info:
            generate_hls_c(func)
        assert info.value.code == "VER002"

    def test_codegen_escape_hatch(self):
        func, A, outer, inner = simple_func()
        inner.body.ops[0].indices.append(e({"j": 1}))
        assert "void f(" in generate_hls_c(func, verify=False)


class _BreakStores(Pass):
    """Deliberately corrupts every store (for the pass manager's verifier)."""

    name = "break-stores"

    def run(self, func):
        for op in func.stores():
            op.indices = list(op.indices) + [e({"i": 1})]
        return True


class TestPassManagerVerification:
    def test_verify_each_catches_broken_pass(self):
        func = lower_to_affine(polybench.gemm(8))
        with pytest.raises(PassError) as info:
            PassManager([_BreakStores()]).run(func)
        assert "break-stores" in str(info.value)
        assert "VER002" in str(info.value)
