"""Unit tests for fine-grained dependence analysis on paper examples."""

import pytest

from repro.dsl import Function, compute, placeholder, var
from repro.depgraph import RAW, WAR, WAW, analyze_compute, cross_offsets, domain_of


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


def carried_raw(compute):
    """The compute's carried RAW dependences."""
    return [d for d in analyze_compute(compute).carried if d.kind == RAW]


def carried_raw_dims(compute):
    return sorted({d.carried_dim for d in carried_raw(compute)})


def elementary_distance(dependence):
    """The paper-style distance vector of the *elementary* dependence.

    The relation includes transitively-implied pairs, so the carried
    entry may be non-constant; the minimum carried distance there is
    the entry the paper quotes (``(0, 0, 1)`` for a reduction along
    ``k``, Fig. 8-3).
    """
    entries = list(dependence.distance.entries)
    if entries[dependence.level] is None:
        entries[dependence.level] = dependence.min_distance
    return tuple(entries)


class TestFig1Stencil:
    def test_distance_vector(self):
        _, s = make_fig1_stencil()
        raws = carried_raw(s)
        assert len(raws) == 1
        assert raws[0].distance.entries == (1, 1)

    def test_direction_vector(self):
        _, s = make_fig1_stencil()
        raws = carried_raw(s)
        assert str(raws[0].direction) == "(<, <)"

    def test_carried_at_outer_level(self):
        _, s = make_fig1_stencil()
        raws = carried_raw(s)
        assert raws[0].level == 0
        assert raws[0].carried_dim == "i"

    def test_min_distance(self):
        _, s = make_fig1_stencil()
        raws = carried_raw(s)
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
        raws = carried_raw(s)
        assert len(raws) == 1
        assert raws[0].carried_dim == "k"

    def test_elementary_distance_matches_paper(self):
        # Paper Fig. 8-3 reports distance vector (0, 0, 1).
        _, s = make_reduction()
        assert elementary_distance(carried_raw(s)[0]) == (0, 0, 1)


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
        assert carried_raw_dims(Sq) == ["j"]

    def test_s_carried_at_outer_i(self, graph_nodes):
        _, Ss = graph_nodes
        assert carried_raw_dims(Ss) == ["i"]

    def test_conflicting_preferences(self, graph_nodes):
        """No single loop order frees the innermost level for both."""
        Sq, Ss = graph_nodes
        assert set(carried_raw_dims(Sq) + carried_raw_dims(Ss)) == {"i", "j"}


class TestNoDependence:
    def test_elementwise_has_no_carried_raw(self):
        with Function("ew") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            B = placeholder("B", (8,))
            s = compute("S", [i], A(i) * 2.0, B(i))
        assert carried_raw(s) == []

    def test_same_array_no_overlap(self):
        # reads A[i], writes A[i]: self RAW only loop-independent, not carried
        with Function("inplace") as f:
            i = var("i", 0, 8)
            A = placeholder("A", (8,))
            s = compute("S", [i], A(i) + 1.0, A(i))
        assert carried_raw(s) == []


class TestPinnedSteps:
    """An access equality ``dim' - dim = c`` decides a level only when
    ``c < 1`` contradicts it; both isl modes must agree."""

    def test_step_pinned_to_one_stays_carried(self, isl_mode):
        """``A[i] = A[i-1]`` pins ``i' - i`` to 1: carried at ``i``
        (never skipped), and not at ``j``, where ``i' == i`` is required."""
        with Function("shift") as f:
            i = var("i", 1, 8)
            j = var("j", 0, 4)
            A = placeholder("A", (8,))
            s = compute("S", [i, j], A(i - 1) * 2.0, A(i))
        raws = carried_raw(s)
        assert [(d.level, d.distance.entries, d.min_distance) for d in raws] == [
            (0, (1, None), 1)
        ]

    def test_step_pinned_to_zero_decides_the_level(self, isl_mode):
        """``out[i] += w[i, k]`` pins ``i' - i`` to 0: only ``k`` carries."""
        with Function("acc") as f:
            i = var("i", 0, 4)
            k = var("k", 0, 4)
            w = placeholder("w", (4, 4))
            out = placeholder("out", (4,))
            s = compute("S", [i, k], out(i) + w(i, k), out(i))
        deps = analyze_compute(s).carried
        assert {(d.kind, d.carried_dim, d.distance.entries) for d in deps} == {
            (kind, "k", (0, None)) for kind in (RAW, WAR, WAW)
        }


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


@pytest.fixture
def fast_mode():
    """The isl shortcuts on, whatever ``REPRO_ISL_REFERENCE`` says: the
    tests using it count what the shortcuts leave to Fourier-Motzkin."""
    from repro.isl import intern

    previous = intern.set_reference_mode(False)
    yield
    intern.set_reference_mode(previous)


@pytest.mark.perfsmoke
def test_perfsmoke_witnesses_leave_fm_only_emptiness_proofs(monkeypatch, fast_mode):
    """Count-based guard (no timing) on a vgg16 conv statement: an
    accumulating conv's RAW, WAR and WAW pairs are one relation, solved
    once; its three carried levels are shown non-empty by witness pairs
    around one domain sample, and its non-constant distance entries by
    neighbouring points.  The three other levels are the output dims,
    whose step the access ``out[co, h, w]`` pins to 0, so they are
    decided without building a relation: Fourier-Motzkin never runs, no
    relation is sampled and no entry is cut (3 relation samples and 12
    emptiness tests with neither shortcut, 3 emptiness tests with
    witnesses alone)."""
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
    assert empties == []
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

    def test_witnessed_relation_answers(self, tight, fast_mode):
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
