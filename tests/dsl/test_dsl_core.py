"""Unit tests for vars, placeholders, dtypes, computes, and functions."""

import numpy as np
import pytest

from repro.dsl import (
    Function,
    compute,
    current_function,
    dtypes,
    float32,
    int32,
    placeholder,
    var,
)
from repro.dsl.placeholder import PartitionScheme
from repro.dsl.schedule import Pipeline, Split, Tile, Unroll


class TestDtypes:
    def test_numpy_mapping(self):
        assert dtypes.float32.np_dtype == np.float32
        assert dtypes.int8.np_dtype == np.int8
        assert dtypes.uint16.np_dtype == np.uint16

    def test_c_names(self):
        assert dtypes.float64.c_name == "double"
        assert dtypes.int32.c_name == "int32_t"

    def test_by_name(self):
        assert dtypes.by_name("float32") is dtypes.float32
        with pytest.raises(KeyError):
            dtypes.by_name("float16")

    def test_paper_aliases(self):
        assert dtypes.p_float32 is dtypes.float32


class TestVar:
    def test_ranged(self):
        i = var("i", 0, 32)
        assert i.extent == 32
        assert i.has_range

    def test_rangeless(self):
        i0 = var("i0")
        assert not i0.has_range
        with pytest.raises(ValueError):
            _ = i0.extent

    def test_half_bounds_rejected(self):
        with pytest.raises(ValueError):
            var("i", 0, None)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            var("i", 5, 5)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            var("2i", 0, 4)


class TestPlaceholder:
    def test_basics(self):
        A = placeholder("A", (32, 16), float32)
        assert A.shape == (32, 16)
        assert A.n_elements == 512

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            placeholder("A", ())
        with pytest.raises(ValueError):
            placeholder("A", (0, 4))

    def test_partition(self):
        A = placeholder("A", (32, 32))
        A.partition([4, 4], "cyclic")
        assert A.partition_scheme == PartitionScheme((4, 4), "cyclic")
        assert A.partition_scheme.total_banks == 16

    def test_partition_validation(self):
        A = placeholder("A", (32, 32))
        with pytest.raises(ValueError):
            A.partition([4], "cyclic")
        with pytest.raises(ValueError):
            A.partition([64, 4], "cyclic")
        with pytest.raises(ValueError):
            A.partition([4, 4], "diagonal")

    def test_allocate(self):
        A = placeholder("A", (4, 4), int32)
        buf = A.allocate()
        assert buf.shape == (4, 4)
        assert buf.dtype == np.int32
        assert (buf == 0).all()

    def test_allocate_random(self):
        A = placeholder("A", (4, 4), float32)
        rng = np.random.default_rng(0)
        buf = A.allocate(rng)
        assert buf.dtype == np.float32
        assert not (buf == 0).all()


class TestFunctionContext:
    def test_computes_register(self):
        with Function("f") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            B = placeholder("B", (4,))
            s = compute("s", [i], A(i) + 1.0, B(i))
        assert f.computes == [s]
        assert s.function is f

    def test_current_function_scoping(self):
        assert current_function() is None
        with Function("outer") as f:
            assert current_function() is f
        assert current_function() is None

    def test_duplicate_compute_names_rejected(self):
        with Function("f") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            compute("s", [i], A(i) + 1.0, A(i))
            with pytest.raises(ValueError):
                compute("s", [i], A(i) + 2.0, A(i))

    def test_placeholders_first_use_order(self):
        with Function("f") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            B = placeholder("B", (4,))
            compute("s", [i], B(i) * 2.0, A(i))
        assert [p.name for p in f.placeholders()] == ["A", "B"]

    def test_get_compute(self):
        with Function("f") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            s = compute("s", [i], A(i) + 1.0, A(i))
        assert f.get_compute("s") is s
        with pytest.raises(KeyError):
            f.get_compute("t")


class TestComputeValidation:
    def test_undeclared_iterator_rejected(self):
        with Function("f"):
            i = var("i", 0, 4)
            j = var("j", 0, 4)
            A = placeholder("A", (4, 4))
            with pytest.raises(ValueError):
                compute("s", [i], A(i, j) + 1.0, A(i, j))

    def test_rangeless_iterator_rejected(self):
        with Function("f"):
            i = var("i")
            A = placeholder("A", (4,))
            with pytest.raises(TypeError):
                compute("s", [i], A(i) + 1.0, A(i))

    def test_duplicate_iterators_rejected(self):
        with Function("f"):
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            with pytest.raises(ValueError):
                compute("s", [i, i], A(i) + 1.0, A(i))

    def test_dest_must_be_access(self):
        with Function("f"):
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            with pytest.raises(TypeError):
                compute("s", [i], A(i) + 1.0, i)


class TestSchedulingPrimitives:
    @pytest.fixture()
    def gemm(self):
        with Function("gemm") as f:
            i = var("i", 0, 8)
            j = var("j", 0, 8)
            k = var("k", 0, 8)
            A = placeholder("A", (8, 8))
            B = placeholder("B", (8, 8))
            C = placeholder("C", (8, 8))
            s = compute("s", [k, i, j], A(i, j) + B(i, k) * C(k, j), A(i, j))
        return f, s, (i, j, k)

    def test_tile_records_directive(self, gemm):
        f, s, (i, j, k) = gemm
        s.tile(i, j, 4, 4, var("i0"), var("j0"), var("i1"), var("j1"))
        (d,) = f.schedule.directives
        assert isinstance(d, Tile)
        assert (d.i, d.j, d.ti, d.tj) == ("i", "j", 4, 4)

    def test_chaining(self, gemm):
        f, s, (i, j, k) = gemm
        s.split(i, 4, "i0", "i1").pipeline("i0").unroll("i1", 4)
        kinds = [type(d) for d in f.schedule]
        assert kinds == [Split, Pipeline, Unroll]

    def test_string_or_var_levels(self, gemm):
        f, s, (i, j, k) = gemm
        s.pipeline(j, 2)
        s.pipeline("j", 2)
        assert f.schedule.directives[0] == f.schedule.directives[1]

    def test_invalid_factors_rejected(self, gemm):
        _, s, (i, j, k) = gemm
        with pytest.raises(ValueError):
            s.split(i, 1, "a", "b")
        with pytest.raises(ValueError):
            s.pipeline(j, 0)
        with pytest.raises(ValueError):
            s.unroll(j, -1)
        with pytest.raises(ValueError):
            s.skew(i, j, 0, "ip", "jp")

    def test_reset_schedule(self, gemm):
        f, s, (i, j, k) = gemm
        s.pipeline(j)
        f.reset_schedule()
        assert len(f.schedule) == 0

    def test_schedule_filters(self, gemm):
        f, s, (i, j, k) = gemm
        s.interchange(k, i)
        s.pipeline(j)
        assert len(f.schedule.for_compute("s")) == 2


class TestReferenceExecution:
    def test_gemm_matches_numpy(self):
        N = 8
        with Function("gemm") as f:
            i = var("i", 0, N)
            j = var("j", 0, N)
            k = var("k", 0, N)
            A = placeholder("A", (N, N))
            B = placeholder("B", (N, N))
            C = placeholder("C", (N, N))
            compute("s", [k, i, j], A(i, j) + B(i, k) * C(k, j), A(i, j))
        arrays = f.allocate_arrays(seed=7)
        ref = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(arrays)
        want = ref["A"] + ref["B"] @ ref["C"]
        assert np.allclose(arrays["A"], want, rtol=1e-4)

    def test_stencil_sequential_semantics(self):
        """Seidel-style in-place update must see freshly-written values."""
        N = 6
        with Function("seq") as f:
            i = var("i", 1, N - 1)
            A = placeholder("A", (N,), float32)
            compute("s", [i], (A(i - 1) + A(i + 1)) / 2.0, A(i))
        arrays = f.allocate_arrays(seed=3)
        got = {n: a.copy() for n, a in arrays.items()}
        f.reference_execute(got)
        want = arrays["A"].copy()
        for ii in range(1, N - 1):
            want[ii] = (want[ii - 1] + want[ii + 1]) / np.float32(2.0)
        assert np.allclose(got["A"], want)

    def test_two_computes_run_in_order(self):
        N = 4
        with Function("pair") as f:
            i = var("i", 0, N)
            A = placeholder("A", (N,))
            B = placeholder("B", (N,))
            C = placeholder("C", (N,))
            compute("p", [i], A(i) + 1.0, B(i))
            compute("c", [i], B(i) * 2.0, C(i))
        arrays = f.allocate_arrays(seed=5)
        ref_a = arrays["A"].copy()
        f.reference_execute(arrays)
        assert np.allclose(arrays["C"], (ref_a + 1.0) * 2.0)
