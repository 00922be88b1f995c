"""Unit tests for fine-grained dependence analysis on paper examples."""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.depgraph import RAW, WAR, analyze_compute, cross_offsets, domain_of


def make_fig1_stencil():
    """Paper Fig. 1: A[i][j] = A[i-1][j-1] * 2 + 3 over 1 <= i, j <= 4."""
    with Function("fig1") as f:
        i = var("i", 1, 5)
        j = var("j", 1, 5)
        A = placeholder("A", (6, 6))
        s = compute("S", [i, j], A(i - 1, j - 1) * 2.0 + 3.0, A(i, j))
    return f, s


def make_reduction():
    """Fig. 8 S4: D[i][j] += B[i][k] * C[k][j]."""
    with Function("s4") as f:
        i = var("i", 0, 8)
        j = var("j", 0, 8)
        k = var("k", 0, 8)
        B = placeholder("B", (8, 8))
        C = placeholder("C", (8, 8))
        D = placeholder("D", (8, 8))
        s = compute("S4", [i, j, k], D(i, j) + B(i, k) * C(k, j), D(i, j))
    return f, s


class TestFig1Stencil:
    def test_distance_vector(self):
        _, s = make_fig1_stencil()
        analysis = analyze_compute(s)
        raws = analysis.carried_raw()
        assert len(raws) == 1
        assert raws[0].distance.entries == (1, 1)

    def test_direction_vector(self):
        _, s = make_fig1_stencil()
        raws = analyze_compute(s).carried_raw()
        assert str(raws[0].direction) == "(<, <)"

    def test_carried_at_outer_level(self):
        _, s = make_fig1_stencil()
        raws = analyze_compute(s).carried_raw()
        assert raws[0].level == 0
        assert raws[0].carried_dim == "i"

    def test_min_distance(self):
        _, s = make_fig1_stencil()
        raws = analyze_compute(s).carried_raw()
        assert raws[0].min_distance == 1

    def test_no_reduction_dims(self):
        _, s = make_fig1_stencil()
        assert analyze_compute(s).reduction_dims == []

    def test_war_dependence_exists(self):
        # write A[i][j], read A[i-1][j-1]: the anti-dependence runs backwards
        # in iteration space, so no carried WAR exists (it would be lex-negative).
        _, s = make_fig1_stencil()
        wars = [d for d in analyze_compute(s).carried if d.kind == WAR]
        assert wars == []


class TestReduction:
    def test_reduction_dim_detected(self):
        _, s = make_reduction()
        assert analyze_compute(s).reduction_dims == ["k"]

    def test_carried_at_k(self):
        _, s = make_reduction()
        raws = analyze_compute(s).carried_raw()
        assert len(raws) == 1
        assert raws[0].carried_dim == "k"

    def test_elementary_distance_matches_paper(self):
        # Paper Fig. 8-3 reports distance vector (0, 0, 1).
        _, s = make_reduction()
        raw = analyze_compute(s).carried_raw()[0]
        assert raw.elementary_distance().entries == (0, 0, 1)

    def test_free_dims(self):
        _, s = make_reduction()
        assert analyze_compute(s).free_dims() == ["i", "j"]

    def test_tight_innermost(self):
        _, s = make_reduction()
        assert analyze_compute(s).has_tight_innermost_dependence()


class TestBicg:
    """The motivating example (Section II-D): conflicting carried deps."""

    @pytest.fixture()
    def graph_nodes(self):
        with Function("bicg") as f:
            N = 8
            i = var("i", 0, N)
            j = var("j", 0, N)
            A = placeholder("A", (N, N))
            p = placeholder("p", (N,))
            q = placeholder("q", (N,))
            r = placeholder("r", (N,))
            s = placeholder("s", (N,))
            Sq = compute("Sq", [i, j], q(i) + A(i, j) * p(j), q(i))
            Ss = compute("Ss", [i, j], s(j) + r(i) * A(i, j), s(j))
        return Sq, Ss

    def test_q_carried_at_inner_j(self, graph_nodes):
        Sq, _ = graph_nodes
        analysis = analyze_compute(Sq)
        assert analysis.dims_with_carried_raw() == ["j"]
        assert analysis.has_tight_innermost_dependence()

    def test_s_carried_at_outer_i(self, graph_nodes):
        _, Ss = graph_nodes
        analysis = analyze_compute(Ss)
        assert analysis.dims_with_carried_raw() == ["i"]
        assert not analysis.has_tight_innermost_dependence()

    def test_conflicting_preferences(self, graph_nodes):
        """No single loop order frees the innermost level for both."""
        Sq, Ss = graph_nodes
        free_q = set(analyze_compute(Sq).free_dims())
        free_s = set(analyze_compute(Ss).free_dims())
        assert free_q == {"i"}
        assert free_s == {"j"}
        assert not (free_q & free_s)


class TestNoDependence:
    def test_elementwise_has_no_carried_raw(self):
        with Function("ew") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            s = compute("S", [i], A(i) * 2.0, B(i))
        analysis = analyze_compute(s)
        assert analysis.carried_raw() == []
        assert analysis.free_dims() == ["i"]

    def test_same_array_no_overlap(self):
        # reads A[i], writes A[i]: self RAW only loop-independent, not carried
        with Function("inplace") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            s = compute("S", [i], A(i) + 1.0, A(i))
        assert analyze_compute(s).carried_raw() == []


class TestDomainOf:
    def test_box_matches_iters(self):
        _, s = make_reduction()
        dom = domain_of(s)
        assert dom.dims == ("i", "j", "k")
        assert dom.count_points() == 512

    def test_custom_order(self):
        _, s = make_reduction()
        dom = domain_of(s, dims=["k", "i", "j"])
        assert dom.dims == ("k", "i", "j")


class TestCrossOffsets:
    def test_aligned_producer_consumer(self):
        with Function("pc") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            C = placeholder("C", (8,))
            p = compute("P", [i], A(i) + 1.0, B(i))
            c = compute("C_", [i], B(i) * 2.0, C(i))
        offsets = cross_offsets(p, c)
        assert offsets == {"B": (0,)}

    def test_shifted_consumer(self):
        with Function("pc2") as f:
            i = var("i", 1, 8)
            A = placeholder("A", (9,))
            B = placeholder("B", (9,))
            C = placeholder("C", (9,))
            p = compute("P", [i], A(i) + 1.0, B(i))
            c = compute("C_", [i], B(i - 1) * 2.0, C(i))
        assert cross_offsets(p, c) == {"B": (-1,)}

    def test_unaligned(self):
        with Function("pc3") as f:
            i = var("i", 0, 4)
            j = var("j", 0, 4)
            B = placeholder("B", (4, 4))
            C = placeholder("C", (4, 4))
            A = placeholder("A", (4, 4))
            p = compute("P", [i, j], A(i, j) + 1.0, B(i, j))
            c = compute("C_", [i, j], B(j, i) * 2.0, C(i, j))
        assert cross_offsets(p, c) == {"B": None}


@pytest.mark.perfsmoke
def test_perfsmoke_witnesses_leave_fm_only_emptiness_proofs(monkeypatch):
    """Count-based guard (no timing) on a vgg16 conv statement: an
    accumulating conv's RAW, WAR and WAW pairs are one relation, solved
    once; its three carried levels are shown non-empty by witness pairs
    around one domain sample, and its non-constant distance entries by
    neighbouring points.  Fourier-Motzkin then runs only to prove the
    three other levels empty: no relation is sampled and no entry is
    cut (3 relation samples and 12 emptiness tests without witnesses)."""
    from repro import workloads
    from repro.dse.analysis import carried_for_statement
    from repro.dse.stage1 import plan_stage1
    from repro.polyir.program import PolyProgram
    from repro.isl import memo
    from repro.isl.sets import BasicSet

    function = workloads.get("vgg16", 4)
    program = PolyProgram(function).apply_schedule(
        plan_stage1(function).directives
    )
    stmt = program.statement("conv2")

    samples, empties = [], []
    sample, is_empty = BasicSet.sample, BasicSet.is_empty
    monkeypatch.setattr(
        BasicSet, "sample", lambda self: samples.append(self.dims) or sample(self)
    )
    monkeypatch.setattr(
        BasicSet, "is_empty", lambda self: empties.append(is_empty(self)) or empties[-1]
    )
    context = memo.MemoContext()
    previous = memo.activate(context)
    try:
        deps = carried_for_statement(stmt, kinds=("RAW", "WAR", "WAW"))
    finally:
        memo.activate(previous)
    assert len(deps) == 9
    assert {d.kind for d in deps} == {"RAW", "WAR", "WAW"}
    assert samples == [tuple(stmt.loop_order)]  # the domain's, no relation's
    assert empties == [True] * 3
    assert context.stats_snapshot()["projection"][1] == 0


class TestEliminationLimit:
    """A cut a witness decides never reaches Fourier-Motzkin, so the
    ISL001 pairing limit bounds emptiness proofs only.  With the limit at
    one pair, a box domain still eliminates (one lower, one upper bound
    per dim) but no relation over two instances does."""

    @pytest.fixture
    def tight(self, monkeypatch):
        from repro.isl import constraint, memo

        monkeypatch.setattr(constraint, "MAX_FM_PAIRS", 1)
        previous = memo.activate(memo.MemoContext())
        yield
        memo.activate(previous)

    @staticmethod
    def _reduction():
        """``s[0] += A[k]`` over ``0 <= k < 8``."""
        from repro.depgraph.analysis import carried_dependences_generic
        from repro.isl.affine import AffineExpr
        from repro.isl.sets import BasicSet

        cell = [AffineExpr.const(0)]
        return carried_dependences_generic(
            ["k"], BasicSet.box({"k": (0, 7)}), [("RAW", "s", cell, cell)], {"k": 8}
        )

    def test_witnessed_relation_answers(self, tight):
        (dep,) = self._reduction()
        assert (dep.level, dep.distance.entries, dep.min_distance) == (0, (None,), 1)

    def test_reference_mode_still_raises(self, tight):
        from repro.isl import intern
        from repro.isl.constraint import EliminationBlowup

        previous = intern.set_reference_mode(True)
        try:
            with pytest.raises(EliminationBlowup) as raised:
                self._reduction()
        finally:
            intern.set_reference_mode(previous)
        assert raised.value.code == "ISL001"

    def test_emptiness_proof_still_raises(self, tight):
        """``A[i]`` written for i in [0, 3], ``A[j]`` read for j in
        [4, 7]: no pair exists, and proving so pairs 2 x 2 bounds."""
        from repro.depgraph.analysis import carried_dependences_generic
        from repro.isl.affine import AffineExpr
        from repro.isl.constraint import EliminationBlowup
        from repro.isl.sets import BasicSet

        domain = BasicSet.box({"i": (0, 3), "j": (4, 7)})
        pairs = [("RAW", "A", [AffineExpr.var("i")], [AffineExpr.var("j")])]
        with pytest.raises(EliminationBlowup) as raised:
            carried_dependences_generic(["i", "j"], domain, pairs, {"i": 4, "j": 4})
        assert raised.value.code == "ISL001"
