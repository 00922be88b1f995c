"""Access bounds: carried levels the access equalities alone show
empty are decided before any relation is built.

An index whose source and sink share their linear part fixes a
combination of the steps ``dim' - dim``; with each step bounded by its
dim's span in the domain box, a level is empty when that combination
cannot reach the level's ``step >= 1`` with every step above it 0.
When every level is, neither the pair relation nor the witness origin
is built.  The exits change no answer: every query a sweep makes
returns the same rows with them on and off, and reference mode takes
none of them.
"""

import pytest

from repro import trace, workloads
from repro.depgraph import analysis, analyze_compute
from repro.dse import DseOptions, auto_dse
from repro.dsl import Function, compute, placeholder, var
from repro.isl import intern
from repro.isl.sets import BasicSet


@pytest.fixture
def fast_mode():
    previous = intern.set_reference_mode(False)
    yield
    intern.set_reference_mode(previous)


def accumulate():
    """``C[i][j] += A[i][k]``: both output steps pinned to 0."""
    with Function("acc") as f:
        i = var("i", 0, 4)
        j = var("j", 0, 4)
        k = var("k", 0, 4)
        A = placeholder("A", (4, 4))
        C = placeholder("C", (4, 4))
        s = compute("S", [i, j, k], C(i, j) + A(i, k), C(i, j))
    return s


def rescale():
    """``C[i][j] = C[i][j] * 2``: every step pinned to 0."""
    with Function("scale") as f:
        i = var("i", 0, 4)
        j = var("j", 0, 4)
        C = placeholder("C", (4, 4))
        s = compute("S", [i, j], C(i, j) * 2.0, C(i, j))
    return s


def tiled_rescale():
    """``C[4*t + u] = C[4*t + u] * 2``: no step is pinned, but with
    ``0 <= u <= 3`` the index is one-to-one, so nothing carries."""
    with Function("tiled") as f:
        t = var("t", 0, 8)
        u = var("u", 0, 4)
        C = placeholder("C", (32,))
        s = compute("S", [t, u], C(t * 4 + u) * 2.0, C(t * 4 + u))
    return s


def shift():
    """``A[i][j] = A[i-1][j]``: ``i' - i`` pinned to 1, ``j' - j`` to 0."""
    with Function("shift") as f:
        i = var("i", 1, 6)
        j = var("j", 0, 4)
        A = placeholder("A", (6, 4))
        s = compute("S", [i, j], A(i - 1, j) * 2.0, A(i, j))
    return s


class TestExits:
    @pytest.mark.parametrize("make", [rescale, tiled_rescale])
    def test_a_decided_pair_builds_nothing(self, make, monkeypatch, fast_mode):
        built, sampled = [], []
        pair_relation, sample = analysis._pair_relation, BasicSet.sample
        monkeypatch.setattr(
            analysis, "_pair_relation",
            lambda *args: built.append(args) or pair_relation(*args),
        )
        monkeypatch.setattr(
            BasicSet, "sample", lambda self: sampled.append(self) or sample(self)
        )
        assert analyze_compute(make()).carried == []
        assert built == [] and sampled == []

    def test_a_pinned_nonzero_step_drops_the_levels_below(self, isl_mode):
        """Level ``j`` needs ``i' == i``, which the pin ``i' - i = 1``
        contradicts: only ``i`` carries, in both isl modes."""
        raws = analyze_compute(shift()).carried_raw()
        assert [(d.level, d.distance.entries, d.min_distance) for d in raws] == [
            (0, (1, 0), 1)
        ]

    @pytest.mark.parametrize("make", [accumulate, rescale, tiled_rescale, shift])
    def test_reference_mode_takes_no_exit(self, make):
        counts = {}
        rows = {}
        for mode in (False, True):
            previous = intern.set_reference_mode(mode)
            try:
                with trace.tracing() as tracer:
                    rows[mode] = repr(analyze_compute(make()).carried)
            finally:
                intern.set_reference_mode(previous)
            counts[mode] = tracer.metrics.value("depgraph.equalities")
        assert rows[False] == rows[True]
        assert counts[False] > 0
        assert not counts[True]


@pytest.fixture(scope="module")
def sweep_queries():
    """Every distinct ``_carried`` query of sweeps over the registry
    kernels, a dataflow design and a small DNN, shortcuts on."""
    queries = {}
    carried = analysis._carried

    def recording(dims, domain, pairs, extents):
        key = repr((tuple(dims), domain, [tuple(map(tuple, p[2:])) + p[:2] for p in pairs],
                    sorted(extents.items())))
        queries.setdefault(key, (list(dims), domain, list(pairs), dict(extents)))
        return carried(dims, domain, pairs, extents)

    previous = intern.set_reference_mode(False)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_carried", recording)
            for name in workloads.names(kind="function"):
                if name in workloads.suites()["dnn"]:
                    continue
                auto_dse(workloads.get(name, 16), options=DseOptions(resource_fraction=0.5))
            auto_dse(workloads.get("vgg16", 4), options=DseOptions(resource_fraction=0.25))
            workloads.get("conv-block", 16).auto_DSE(options=DseOptions(resource_fraction=0.5))
    finally:
        intern.set_reference_mode(previous)
    return list(queries.values())


def test_every_sweep_query_is_the_same_with_the_exits_on_and_off(
    sweep_queries, monkeypatch, fast_mode
):
    """With every level open and nothing pinned, every relation is built
    and every entry is cut: the rows must not move."""
    with_exits = [repr(analysis._carried(*query)) for query in sweep_queries]
    monkeypatch.setattr(
        analysis, "_open_levels", lambda dims, *args: list(range(len(dims)))
    )
    monkeypatch.setattr(analysis, "_pinned", lambda equalities: {})
    without = [repr(analysis._carried(*query)) for query in sweep_queries]
    assert with_exits == without
    assert len(sweep_queries) > 100


@pytest.mark.parametrize("lo, hi", [(0, 3), (-2, 5), (4, 4)])
def test_box_spans_bound_every_point(lo, hi):
    """Unit single-dim constraints give the span; a coupled constraint
    leaves a dim unbounded (no span)."""
    from repro.isl.constraint import Constraint

    box = BasicSet.box({"i": (lo, hi), "j": (0, 9)})
    assert analysis._box_spans(box) == {"i": hi - lo, "j": 9}
    coupled = BasicSet(("i", "j"), box.constraints[:2] + (Constraint.ge("j", "i"),))
    assert analysis._box_spans(coupled) == {"i": hi - lo}


def test_random_shared_linear_parts_agree_with_the_exits_off(monkeypatch, fast_mode):
    """Index pairs sharing a linear part (the case the exits read) with
    random coefficients, offsets and boxes, some coupled by a diagonal
    constraint: the rows are the same with every level left open."""
    import random

    from repro.isl.affine import AffineExpr
    from repro.isl.constraint import Constraint

    rng = random.Random(34)
    queries = []
    for _ in range(300):
        dims = ("a", "b", "c")[: rng.randint(1, 3)]
        bounds = {d: (rng.randint(-2, 1), rng.randint(1, 6)) for d in dims}
        domain = BasicSet.box(bounds, order=dims)
        if len(dims) > 1 and rng.random() < 0.3:
            domain = domain.with_constraints([Constraint.ge(dims[1], dims[0])])
        src, snk = [], []
        for _ in range(rng.randint(1, 2)):
            coeffs = {d: rng.choice((-3, -1, 0, 1, 2, 4)) for d in dims}
            src.append(AffineExpr(coeffs, rng.randint(-3, 3)))
            snk.append(AffineExpr(coeffs, rng.randint(-3, 3)))
        extents = {d: hi - lo + 1 for d, (lo, hi) in bounds.items()}
        queries.append((dims, domain, [("RAW", "A", src, snk)], extents))
    with_exits = [repr(analysis._carried(*query)) for query in queries]
    monkeypatch.setattr(
        analysis, "_open_levels", lambda dims, *args: list(range(len(dims)))
    )
    without = [repr(analysis._carried(*query)) for query in queries]
    assert with_exits == without
    assert sum(rows == "[]" for rows in with_exits) > 30
