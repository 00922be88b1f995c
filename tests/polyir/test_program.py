"""Unit tests for PolyProgram: directive replay, after/fuse, AST annotation."""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.isl.astbuild import BlockNode, ForNode, UserNode
from repro.polyir import PolyProgram, lower_function


def gemm_function(n=32):
    with Function("gemm") as f:
        i = var("i", 0, n)
        j = var("j", 0, n)
        k = var("k", 0, n)
        A = placeholder("A", (n, n))
        B = placeholder("B", (n, n))
        C = placeholder("C", (n, n))
        s = compute("s", [k, i, j], A(i, j) + B(i, k) * C(k, j), A(i, j))
    return f, s, (i, j, k)


def loops_of(ast):
    return [n for n in ast.walk() if isinstance(n, ForNode)]


def loop_by_iter(ast, name):
    return next(n for n in loops_of(ast) if n.iterator == name)


class TestDirectiveReplay:
    def test_paper_fig6_pipeline(self):
        """GEMM tiled 4x4, pipelined at j0, unrolled at i1/j1 (Figs. 5-6)."""
        f, s, (i, j, k) = gemm_function()
        s.tile(i, j, 4, 4, "i0", "j0", "i1", "j1")
        s.pipeline("j0", 1)
        s.unroll("i1", 4)
        s.unroll("j1", 4)
        ast = lower_function(f).build_ast()
        iters = [l.iterator for l in loops_of(ast)]
        assert iters == ["k", "i0", "j0", "i1", "j1"]
        assert loop_by_iter(ast, "j0").annotations.get("pipeline") == 1
        assert loop_by_iter(ast, "i1").annotations.get("unroll") == 4
        assert loop_by_iter(ast, "j1").annotations.get("unroll") == 4
        trips = [l.constant_trip_count() for l in loops_of(ast)]
        assert trips == [32, 8, 8, 4, 4]

    def test_interchange_directive(self):
        f, s, (i, j, k) = gemm_function()
        s.interchange(k, j)
        ast = lower_function(f).build_ast()
        assert [l.iterator for l in loops_of(ast)] == ["j", "i", "k"]

    def test_skew_directive(self):
        with Function("st") as f:
            i = var("i", 1, 9)
            j = var("j", 1, 9)
            A = placeholder("A", (10, 10))
            s = compute("s", [i, j], (A(i - 1, j) + A(i, j - 1)) * 0.5, A(i, j))
        s.skew(i, j, 1, "ip", "jp")
        s.interchange("ip", "jp")
        ast = lower_function(f).build_ast()
        assert [l.iterator for l in loops_of(ast)] == ["jp", "ip"]

    def test_pipeline_unknown_level_raises(self):
        f, s, _ = gemm_function()
        s.pipeline("nope")
        with pytest.raises(KeyError):
            lower_function(f)

    def test_directives_apply_in_order(self):
        f, s, (i, j, k) = gemm_function()
        s.split(i, 4, "i0", "i1")
        s.interchange("i1", "j")   # references the split result
        ast = lower_function(f).build_ast()
        assert [l.iterator for l in loops_of(ast)] == ["k", "i0", "j", "i1"]


class TestAfterAndFuse:
    def two_stmt_function(self):
        with Function("pair") as f:
            n = 8
            i = var("i", 0, n)
            A = placeholder("A", (n,))
            B = placeholder("B", (n,))
            C = placeholder("C", (n,))
            s1 = compute("s1", [i], A(i) + 1.0, B(i))
            s2 = compute("s2", [i], B(i) * 2.0, C(i))
        return f, s1, s2, i

    def test_default_sequencing(self):
        f, s1, s2, i = self.two_stmt_function()
        ast = lower_function(f).build_ast()
        # two separate loops under a block
        assert isinstance(ast, BlockNode)
        assert len(loops_of(ast)) == 2

    def test_after_at_level_fuses(self):
        f, s1, s2, i = self.two_stmt_function()
        s2.after(s1, i)
        ast = lower_function(f).build_ast()
        assert len(loops_of(ast)) == 1
        users = [n.name for n in ast.walk() if isinstance(n, UserNode)]
        assert users == ["s1", "s2"]

    def test_fuse_directive(self):
        f, s1, s2, i = self.two_stmt_function()
        s2.fuse(s1, i)
        ast = lower_function(f).build_ast()
        assert len(loops_of(ast)) == 1

    def test_after_top_level_reorders(self):
        f, s1, s2, i = self.two_stmt_function()
        s1.after(s2, None)  # run s1 after s2
        prog = lower_function(f)
        st1, st2 = prog.statement("s1"), prog.statement("s2")
        assert st2.statics[0] < st1.statics[0]

    def test_fuse_too_deep_rejected(self):
        with Function("deep") as f:
            i = var("i", 0, 4)
            j = var("j", 0, 4)
            A = placeholder("A", (4, 4))
            B = placeholder("B", (4,))
            s1 = compute("s1", [i, j], A(i, j) + 1.0, A(i, j))
            s2 = compute("s2", [i], B(i) * 2.0, B(i))
        s2.after(s1, j)
        from repro.polyir import TransformError

        with pytest.raises(TransformError):
            lower_function(f)

    def test_chained_after(self):
        with Function("chain") as f:
            n = 4
            i = var("i", 0, n)
            A = placeholder("A", (n,))
            B = placeholder("B", (n,))
            C = placeholder("C", (n,))
            D = placeholder("D", (n,))
            s1 = compute("s1", [i], A(i) + 1.0, B(i))
            s2 = compute("s2", [i], B(i) * 2.0, C(i))
            s3 = compute("s3", [i], C(i) - 1.0, D(i))
        s2.after(s1, i)
        s3.after(s2, i)
        ast = lower_function(f).build_ast()
        assert len(loops_of(ast)) == 1
        users = [n.name for n in ast.walk() if isinstance(n, UserNode)]
        assert users == ["s1", "s2", "s3"]


class TestAnnotationMerging:
    def test_fused_pipeline_takes_min_ii(self):
        with Function("mrg") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            s1 = compute("s1", [i], A(i) + 1.0, A(i))
            s2 = compute("s2", [i], B(i) * 2.0, B(i))
        s2.after(s1, i)
        s1.pipeline(i, 4)
        s2.pipeline(i, 2)
        ast = lower_function(f).build_ast()
        assert loop_by_iter(ast, "i").annotations["pipeline"] == 2

    def test_unroll_complete_dominates(self):
        with Function("mrg2") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            s1 = compute("s1", [i], A(i) + 1.0, A(i))
            s2 = compute("s2", [i], B(i) * 2.0, B(i))
        s2.after(s1, i)
        s1.unroll(i, 2)
        s2.unroll(i, 0)
        ast = lower_function(f).build_ast()
        assert loop_by_iter(ast, "i").annotations["unroll"] == 0


class TestStatementLookup:
    def test_statement_and_replace(self):
        f, s, _ = gemm_function()
        prog = PolyProgram(f)
        assert prog.statement("s").name == "s"
        with pytest.raises(KeyError):
            prog.statement("zzz")

    def test_user_payload_is_statement(self):
        f, s, _ = gemm_function()
        prog = lower_function(f)
        ast = prog.build_ast()
        user = next(n for n in ast.walk() if isinstance(n, UserNode))
        assert user.payload is prog.statement("s")


def _repr_fingerprint(stmt):
    """The fingerprint as it was built before the statement kept its
    body / destination reprs: formatted on every call."""
    return (
        stmt.name,
        stmt.domain.dims,
        stmt.domain.rows,
        tuple(stmt.loop_order),
        tuple(stmt.statics),
        repr(stmt.body),
        repr(stmt.dest),
        tuple(stmt.hw_opts),
    )


class TestFingerprint:
    @pytest.mark.parametrize("name", ["gemm", "3mm", "seidel", "bicg", "jacobi-2d"])
    def test_transformed_statements_match_the_repr_fingerprint(self, name):
        """Swept designs (split, interchanged, skewed, fused, annotated):
        every statement, its copy, and the copy once a transform rebinds
        its body and destination."""
        from repro import workloads
        from repro.dse import DseOptions, auto_dse
        from repro.polyir import transforms

        result = auto_dse(workloads.get(name, 16), options=DseOptions(resource_fraction=0.25))
        for stmt in PolyProgram(result.function).apply_schedule().statements:
            assert stmt.fingerprint() == _repr_fingerprint(stmt)
            copy = stmt.copy()
            assert copy.fingerprint() == _repr_fingerprint(copy) == stmt.fingerprint()
            dim = next(d for d in copy.loop_order if (copy.loop_extent(d) or 0) >= 2)
            split = transforms.split(copy, dim, 2, "fp_t", "fp_u")
            assert split.body is not copy.body
            assert split.fingerprint() == _repr_fingerprint(split)
            assert split.fingerprint() != copy.fingerprint()
