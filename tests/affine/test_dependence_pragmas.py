"""Unit tests for the automatic HLS DEPENDENCE pragma hints."""

import pytest

from repro.affine.passes import InsertDependencePragmas
from repro.dsl import Function, compute, placeholder, var
from repro.pipeline import compile_to_hls_c, lower_to_affine
from repro.workloads import polybench


class TestInsertDependencePragmas:
    def test_bicg_pom_design_gets_false_hints(self):
        """After split-interchange, q/s carry nothing at the pipeline level."""
        f = polybench.bicg(64)
        f.auto_DSE()
        func = lower_to_affine(f)
        assert InsertDependencePragmas().run(func)
        hints = []
        for loop in func.loops():
            hints.extend(loop.attributes.get("dependence", []))
        assert "variable=q inter RAW false" in hints
        assert "variable=s inter RAW false" in hints

    def test_true_dependence_gets_no_false_hint(self):
        """Pipelining the reduction itself must NOT claim independence."""
        f = polybench.gemm(16)
        s = f.get_compute("s")
        s.interchange("k", "j")  # k innermost
        s.pipeline("k", 1)
        func = lower_to_affine(f)
        InsertDependencePragmas().run(func)
        for loop in func.loops():
            for hint in loop.attributes.get("dependence", []):
                assert "variable=A" not in hint

    @pytest.mark.parametrize("kind", ("WAR", "WAW"))
    def test_hints_deny_only_raw(self, kind):
        """Only RAW is proven absent: a WAR or WAW kernel keeps its order."""
        with Function(kind) as f:
            i = var("i", 0, 64)
            A = placeholder("A", (65,))
            if kind == "WAR":  # reads A[i + 1] before the next iteration writes it
                s = compute("s", [i], A(i) + A(i + 1), A(i))
            else:  # every iteration writes A[0]
                s = compute("s", [i], A(i + 1) * 2.0, A(0))
        s.pipeline("i", 1)
        func = lower_to_affine(f)
        InsertDependencePragmas().run(func)
        hints = [h for loop in func.loops() for h in loop.attributes.get("dependence", [])]
        assert hints == ["variable=A inter RAW false"]
        assert "variable=A inter RAW false" in compile_to_hls_c(f)

    def test_read_only_arrays_skipped(self):
        f = polybench.gemm(16)
        f.get_compute("s").pipeline("j", 1)
        func = lower_to_affine(f)
        InsertDependencePragmas().run(func)
        for loop in func.loops():
            for hint in loop.attributes.get("dependence", []):
                assert "variable=B" not in hint
                assert "variable=C" not in hint

    def test_idempotent(self):
        f = polybench.bicg(32)
        f.auto_DSE()
        func = lower_to_affine(f)
        InsertDependencePragmas().run(func)
        assert not InsertDependencePragmas().run(func)

    def test_pragma_reaches_hls_c(self):
        f = polybench.bicg(64)
        f.auto_DSE()
        code = compile_to_hls_c(f)
        assert "#pragma HLS dependence variable=q inter RAW false" in code

    def test_no_pipeline_no_hints(self):
        f = polybench.gemm(8)
        func = lower_to_affine(f)
        assert not InsertDependencePragmas().run(func)
