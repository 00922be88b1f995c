"""Unit tests for the workload definitions (semantics + structure)."""

import numpy as np
import pytest

from repro.depgraph import build_dependence_graph
from repro import workloads
from repro.workloads import dnn, image, polybench, stencils


class TestPolybenchSemantics:
    def test_gemm(self):
        f = polybench.gemm(8)
        arrays = f.allocate_arrays(seed=0)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        want = ref["A"] + ref["B"] @ ref["C"]
        assert np.allclose(arrays["A"], want, rtol=1e-4)

    def test_bicg(self):
        f = polybench.bicg(8)
        arrays = f.allocate_arrays(seed=1)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        assert np.allclose(arrays["q"], ref["q"] + ref["A"] @ ref["p"], rtol=1e-4)
        assert np.allclose(arrays["s"], ref["s"] + ref["A"].T @ ref["r"], rtol=1e-4)

    def test_gesummv(self):
        f = polybench.gesummv(8)
        arrays = f.allocate_arrays(seed=2)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        tmp = ref["tmp"] + ref["A"] @ ref["x"]
        y = ref["y"] + ref["B"] @ ref["x"]
        want = tmp * np.float32(1.5) + y * np.float32(1.2)
        assert np.allclose(arrays["y"], want, rtol=1e-3)

    def test_2mm(self):
        f = polybench.mm2(8)
        arrays = f.allocate_arrays(seed=3)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        tmp = ref["tmp"] + ref["A"] @ ref["B"]
        assert np.allclose(arrays["D"], ref["D"] + tmp @ ref["C"], rtol=1e-3)

    def test_3mm(self):
        f = polybench.mm3(8)
        arrays = f.allocate_arrays(seed=4)
        ref = {k: v.copy() for k, v in arrays.items()}
        f.reference_execute(arrays)
        e = ref["E"] + ref["A"] @ ref["B"]
        g = ref["F"] + ref["C"] @ ref["D"]
        assert np.allclose(arrays["G"], ref["G"] + e @ g, rtol=1e-3)

    def test_baseline_flag_fuses_bicg(self):
        plain = polybench.bicg(8)
        fused = polybench.bicg(8, baseline=True)
        assert not plain.structural_directives()
        assert fused.structural_directives()


class TestStencilSemantics:
    def test_jacobi_1d_alternates_buffers(self):
        f = stencils.jacobi_1d(8, steps=2)
        arrays = f.allocate_arrays(seed=0)
        a = arrays["A"].copy()
        b = arrays["B"].copy()
        for _ in range(2):
            for i in range(1, 7):
                b[i] = (a[i - 1] + a[i] + a[i + 1]) * np.float32(0.33333)
            for i in range(1, 7):
                a[i] = (b[i - 1] + b[i] + b[i + 1]) * np.float32(0.33333)
        f.reference_execute(arrays)
        assert np.allclose(arrays["A"], a, rtol=1e-4)

    def test_seidel_in_place(self):
        f = stencils.seidel(6, steps=1)
        arrays = f.allocate_arrays(seed=1)
        a = arrays["A"].copy()
        for i in range(1, 5):
            for j in range(1, 5):
                a[i, j] = (
                    a[i - 1, j] + a[i + 1, j] + a[i, j - 1] + a[i, j + 1] + a[i, j]
                ) * np.float32(0.2)
        f.reference_execute(arrays)
        assert np.allclose(arrays["A"], a, rtol=1e-4)

    def test_heat_1d_updates_interior_only(self):
        f = stencils.heat_1d(8, steps=1)
        arrays = f.allocate_arrays(seed=2)
        edges = (arrays["A"][0], arrays["A"][-1])
        f.reference_execute(arrays)
        assert arrays["A"][0] == edges[0]
        assert arrays["A"][-1] == edges[1]


class TestImageStructure:
    def test_blur_two_stages(self):
        f = image.blur(16)
        graph = build_dependence_graph(f, analyze=False)
        assert {(e.src, e.dst) for e in graph.edges} == {("Sh", "Sv")}

    def test_edge_detect_diamond(self):
        f = image.edge_detect(16)
        graph = build_dependence_graph(f, analyze=False)
        edges = {(e.src, e.dst) for e in graph.edges}
        assert ("Ssm", "Sgx") in edges and ("Ssm", "Sgy") in edges
        assert ("Sgx", "Smag") in edges and ("Sgy", "Smag") in edges
        assert len(graph.data_paths()) == 2

    def test_gaussian_separable_semantics(self):
        f = image.gaussian(12)
        arrays = f.allocate_arrays(seed=3)
        img = arrays["img"].astype(np.float64)
        kernel = np.array([0.0625, 0.25, 0.375, 0.25, 0.0625])
        tmp = arrays["tmp"].astype(np.float64)
        out = arrays["out"].astype(np.float64)
        for i in range(2, 10):
            for j in range(2, 10):
                tmp[i, j] = sum(kernel[d + 2] * img[i, j + d] for d in range(-2, 3))
        for i in range(2, 10):
            for j in range(2, 10):
                out[i, j] = sum(kernel[d + 2] * tmp[i + d, j] for d in range(-2, 3))
        f.reference_execute(arrays)
        assert np.allclose(arrays["out"], out, rtol=1e-3)


class TestDnnStructure:
    def test_vgg16_critical_loop_count(self):
        f = dnn.vgg16(size=4, channel_scale=0.1)
        assert len(dnn.critical_loops(f)) == 13

    def test_resnet18_critical_loop_count(self):
        """Paper: 20 critical loops = 17 convolutions + 3 residuals."""
        f = dnn.resnet18(size=4, channel_scale=0.1)
        critical = dnn.critical_loops(f)
        assert len(critical) == 20
        convs = [c for c in critical if c.startswith("conv")]
        residuals = [c for c in critical if c.startswith("res")]
        assert len(convs) == 17
        assert len(residuals) == 3

    def test_conv_semantics(self):
        f = dnn.vgg16(size=4, channel_scale=0.05)
        first = f.computes[0]
        arrays = f.allocate_arrays(seed=5)
        ref = {k: v.copy() for k, v in arrays.items()}
        first.reference_execute(arrays)
        src = ref["input"].astype(np.float64)
        wgt = ref["conv1_w"].astype(np.float64)
        out = ref["conv1_out"].astype(np.float64)
        co, ci, kh, kw = wgt.shape
        for o in range(co):
            for h in range(4):
                for w in range(4):
                    acc = out[o, h, w]
                    for c in range(ci):
                        for r in range(kh):
                            for s in range(kw):
                                acc += src[c, h + r, w + s] * wgt[o, c, r, s]
                    out[o, h, w] = acc
        assert np.allclose(arrays["conv1_out"], out, rtol=1e-3)

    def test_channel_scale(self):
        small = dnn.vgg16(size=4, channel_scale=0.125)
        convs = [c for c in small.computes]
        last = convs[-1]
        co_iter = last.iters[0]
        assert co_iter.extent == 64  # 512 * 0.125


class TestSuiteRegistries:
    def test_all_suites_nonempty(self):
        for name, suite_names in workloads.suites().items():
            assert suite_names, name

    def test_factories_produce_fresh_functions(self):
        f1 = polybench.gemm(8)
        f2 = polybench.gemm(8)
        assert f1 is not f2
        assert f1.computes[0] is not f2.computes[0]


class TestWorkloadRegistry:
    """The `repro.workloads.get/names/kind_of` front door."""

    def test_get_builds_by_name(self):
        function = workloads.get("gemm", 8)
        assert function.name == "gemm"

    def test_get_default_size(self):
        assert workloads.get("gemm") is not None

    def test_names_sorted_and_complete(self):
        names = workloads.names()
        assert names == tuple(sorted(names))
        assert "gemm" in names and "image-pipeline" in names

    def test_names_kind_filter(self):
        functions = workloads.names(kind="function")
        dataflow = workloads.names(kind="dataflow")
        assert "gemm" in functions and "gemm" not in dataflow
        assert "image-pipeline" in dataflow
        assert set(functions) | set(dataflow) == set(workloads.names())
        assert not set(functions) & set(dataflow)

    def test_names_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            workloads.names(kind="nope")

    def test_kind_of(self):
        assert workloads.kind_of("gemm") == "function"
        assert workloads.kind_of("image-pipeline") == "dataflow"

    def test_unknown_name_is_wld001(self):
        from repro.diagnostics import DiagnosticError

        with pytest.raises(DiagnosticError, match="unknown workload") as excinfo:
            workloads.get("gemn", 8)
        assert excinfo.value.diagnostic.code == "WLD001"
        # the typo hint and the full listing both appear
        assert "did you mean" in str(excinfo.value)
        assert "gemm" in str(excinfo.value)

    def test_wld001_is_a_valueerror(self):
        # pre-registry callers caught ValueError/KeyError; the registry's
        # DiagnosticError must keep matching the ValueError handlers.
        with pytest.raises(ValueError):
            workloads.kind_of("nope")

    @pytest.mark.parametrize("size", [0, -3, True, 2.5, "8"])
    def test_bad_size_is_wld002(self, size):
        from repro.diagnostics import DiagnosticError

        with pytest.raises(DiagnosticError) as excinfo:
            workloads.get("gemm", size)
        assert excinfo.value.diagnostic.code == "WLD002"

    def test_unbuildable_size_is_wld002(self):
        from repro.diagnostics import DiagnosticError

        # image-pipeline requires n >= 8; the builder's ValueError is
        # wrapped with the workload name and the stable code.
        with pytest.raises(DiagnosticError, match="image-pipeline") as excinfo:
            workloads.get("image-pipeline", 4)
        assert excinfo.value.diagnostic.code == "WLD002"

    def test_all_suites_is_gone(self):
        with pytest.raises(AttributeError, match="ALL_SUITES"):
            workloads.ALL_SUITES
