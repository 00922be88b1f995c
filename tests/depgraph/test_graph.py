"""Unit tests for the coarse-grained dependence graph (paper Fig. 8)."""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.depgraph import RAW, build_dependence_graph


@pytest.fixture()
def fig8_function():
    """The four-statement example of paper Fig. 8."""
    with Function("fig8") as f:
        N = 4
        i = var("i", 0, N)
        j = var("j", 0, N)
        k = var("k", 0, N)
        A = placeholder("A", (N, N))
        B = placeholder("B", (N, N))
        C = placeholder("C", (N, N))
        D = placeholder("D", (N, N))
        compute("S1", [i, j, k], A(i, j) * 2.0, A(i, j))
        compute("S2", [i, j, k], A(i, j) + B(i, j), B(i, j))
        compute("S3", [i, j, k], A(i, j) + C(i, j), C(i, j))
        compute("S4", [i, j, k], D(i, j) + B(i, k) * C(k, j), D(i, j))
    return f


class TestConstruction:
    def test_nodes(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        assert set(g.nodes) == {"S1", "S2", "S3", "S4"}

    def test_edges_match_paper(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        edges = {(e.src, e.dst) for e in g.edges}
        assert edges == {("S1", "S2"), ("S1", "S3"), ("S2", "S4"), ("S3", "S4")}

    def test_dependence_map_matches_paper(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        assert g.dependence_map["S1"]["S2"] == 1
        assert g.dependence_map["S1"]["S3"] == 1
        assert g.dependence_map["S2"]["S4"] == 1
        assert g.dependence_map["S3"]["S4"] == 1
        assert "S4" not in g.dependence_map["S1"]

    def test_edge_arrays(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        edge = next(e for e in g.edges if (e.src, e.dst) == ("S2", "S4"))
        assert edge.arrays == {"B"}


class TestTraversal:
    def test_sources(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        assert g.sources() == ["S1"]

    def test_data_paths_match_paper(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        paths = {tuple(p) for p in g.data_paths()}
        assert paths == {("S1", "S2", "S4"), ("S1", "S3", "S4")}

    def test_successors(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        assert set(g.successors("S1")) == {"S2", "S3"}


class TestAnalysisIntegration:
    def test_analyze_populates_attributes(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=True)
        for name in g.nodes:
            assert g.nodes[name].analysis is not None

    def test_lazy_node_analysis(self, fig8_function):
        g = build_dependence_graph(fig8_function, analyze=False)
        assert g.nodes["S4"].analysis is None
        analysis = g.node_analysis("S4")
        assert analysis.reduction_dims == ["k"]
        assert g.nodes["S4"].analysis is analysis

    def test_s4_guidance_matches_paper(self, fig8_function):
        """Fig. 8: S4 has loop-carried dependence in k -> interchange hint."""
        g = build_dependence_graph(fig8_function)
        raws = [d for d in g.node_analysis("S4").carried if d.kind == RAW]
        assert {d.carried_dim for d in raws} == {"k"}


class TestIndependentComputes:
    def test_no_edges(self):
        with Function("indep") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            B = placeholder("B", (4,))
            C = placeholder("C", (4,))
            D = placeholder("D", (4,))
            compute("X", [i], A(i) + 1.0, B(i))
            compute("Y", [i], C(i) + 1.0, D(i))
        g = build_dependence_graph(f, analyze=False)
        assert not g.edges
        assert set(g.sources()) == {"X", "Y"}
        assert {tuple(p) for p in g.data_paths()} == {("X",), ("Y",)}

    def test_waw_creates_edge(self):
        with Function("waw") as f:
            i = var("i", 0, 4)
            A = placeholder("A", (4,))
            B = placeholder("B", (4,))
            compute("X", [i], A(i) + 1.0, B(i))
            compute("Y", [i], A(i) * 2.0, B(i))
        g = build_dependence_graph(f, analyze=False)
        assert {(e.src, e.dst) for e in g.edges} == {("X", "Y")}
