"""Brute-force oracle for the dependence engine.

The engine reasons with Fourier-Motzkin emptiness tests and one lexmin
sample per carrying level.  Here every answer is recomputed the slow
way -- enumerate the iteration domain, pair every source instance with
every sink instance touching the same array cell, bucket the pairs by
carrying level -- and compared: a level exists iff it holds a pair, a
distance entry is constant iff every pair agrees on it, and the minimum
distance is the smallest carried step.  Runs against the optimized isl
substrate and against ``REPRO_ISL_REFERENCE`` mode.
"""

import random
from collections import defaultdict

import pytest

from repro import workloads
from repro.depgraph import analyze_compute, dependence_relation, domain_of
from repro.depgraph.analysis import carried_dependences_generic
from repro.dse.analysis import carried_for_statement
from repro.dse.stage1 import plan_stage1
from repro.dsl import Function, compute, placeholder, var
from repro.dsl.schedule import Split, Tile
from repro.fuzz.generator import random_schedule
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.polyir.program import PolyProgram

from tests.depgraph.test_analysis import make_fig1_stencil, make_reduction

#: Statements with more instances than this are out of the oracle's reach
#: (only DNN conv layers, whose channel counts do not scale with ``size``).
MAX_INSTANCES = 5000


def brute_force(dims, points, src_idx, snk_idx):
    """``{level: [distance vector of every carried pair]}``."""
    sinks = defaultdict(list)
    for point in points:
        sinks[tuple(e.evaluate(point) for e in snk_idx)].append(point)
    carried = defaultdict(list)
    for source in points:
        for sink in sinks.get(tuple(e.evaluate(source) for e in src_idx), ()):
            delta = tuple(sink[d] - source[d] for d in dims)
            level = next((k for k, step in enumerate(delta) if step), None)
            if level is not None and delta[level] > 0:
                carried[level].append(delta)
    return carried


def expected(dims, points, src_idx, snk_idx):
    """``[(level, distance entries, min distance)]`` by enumeration."""
    rows = []
    for level, deltas in sorted(brute_force(dims, points, src_idx, snk_idx).items()):
        entries = tuple(
            column[0] if len(set(column)) == 1 else None for column in zip(*deltas)
        )
        rows.append((level, entries, min(delta[level] for delta in deltas)))
    return rows


def found(deps):
    for dep in deps:
        assert dep.direction == dep.distance.direction()
    return [(dep.level, dep.distance.entries, dep.min_distance) for dep in deps]


def pairs_of(dest, loads):
    """``(kind, src indices, snk indices)``: RAW and WAR per distinct load
    of the written array, then WAW -- assembled here, not by the engine."""
    store = dest.affine_indices()
    seen = set()
    for load in loads:
        key = tuple(map(str, load.indices))
        if load.array_name == dest.array_name and key not in seen:
            seen.add(key)
            yield "RAW", store, load.affine_indices()
            yield "WAR", load.affine_indices(), store
    yield "WAW", store, store


def instances(compute):
    total = 1
    for lo, hi in compute.domain_bounds().values():
        total *= hi - lo + 1
    return total


def check_compute(compute):
    """``analyze_compute`` against enumeration, pair by pair."""
    dims = compute.iter_names
    points = list(domain_of(compute).points())
    want = []
    for kind, src_idx, snk_idx in pairs_of(compute.dest, compute.loads()):
        want += [(kind,) + row for row in expected(dims, points, src_idx, snk_idx)]
    got = analyze_compute(compute).carried
    assert [(dep.kind,) + row for dep, row in zip(got, found(got))] == want


def check_statement(stmt, exact):
    """The generic engine on a transformed statement against enumeration.

    Always *sound*: no carried level is missed, an entry reported
    constant is the value every pair has, the reported minimum distance
    never exceeds the true one.  ``exact`` additionally demands equality;
    it holds for every domain without strided (split/tile) dims, where
    rational emptiness cannot see that ``4*io + ii == 4*io' + ii'``
    forces ``io == io'``.  Returns whether the statement came out exact.
    """
    dims = list(stmt.loop_order)
    points = list({
        tuple(point[d] for d in dims): {d: point[d] for d in dims}
        for point in stmt.domain.points()
    }.values())
    domain = stmt.domain.project_onto(dims).reorder_dims(dims)
    extents = {d: stmt.loop_extent(d) or 1 for d in dims}
    all_rows, all_exact = [], True
    for kind, src_idx, snk_idx in pairs_of(stmt.dest, stmt.body.loads()):
        got = found(carried_dependences_generic(
            dims, domain, [(kind, stmt.dest.array_name, src_idx, snk_idx)], extents
        ))
        want = expected(dims, points, src_idx, snk_idx)
        by_level = {level: (entries, least) for level, entries, least in got}
        for level, entries, least in want:
            assert level in by_level, (kind, level)
            got_entries, got_least = by_level[level]
            for got_entry, entry in zip(got_entries, entries):
                assert got_entry is None or got_entry == entry
            assert 1 <= got_least <= least
        all_exact = all_exact and got == want
        all_rows += [(kind,) + row for row in got]
    full = carried_for_statement(stmt, kinds=("RAW", "WAR", "WAW"))
    assert [(dep.kind,) + row for dep, row in zip(full, found(full))] == all_rows
    if exact:
        assert all_exact
    return all_exact


def make_conv():
    """A DNN conv layer in miniature (the shape of ``workloads.dnn``'s):
    2 input and 2 output channels, 3x3 taps, 5x5 output, 900 instances.
    Its accumulation is carried at the three reduction dims, where the
    engine's witness pairs decide the levels and the non-constant
    entries."""
    with Function("conv") as f:
        co = var("co", 0, 2)
        h = var("h", 0, 5)
        w = var("w", 0, 5)
        ci = var("ci", 0, 2)
        r = var("r", 0, 3)
        c = var("c", 0, 3)
        src = placeholder("src", (2, 7, 7))
        wgt = placeholder("wgt", (2, 2, 3, 3))
        out = placeholder("out", (2, 5, 5))
        s = compute(
            "conv",
            [co, h, w, ci, r, c],
            out(co, h, w) + src(ci, h + r, w + c) * wgt(co, ci, r, c),
            out(co, h, w),
        )
    return f, s


class TestPaperExamples:
    @pytest.mark.parametrize("make", [make_fig1_stencil, make_reduction, make_conv])
    def test_analysis_matches_enumeration(self, make, isl_mode):
        _, compute = make()
        check_compute(compute)

    @pytest.mark.parametrize("make", [make_fig1_stencil, make_reduction])
    def test_relation_holds_exactly_the_carried_pairs(self, make):
        _, compute = make()
        dims = compute.iter_names
        points = list(domain_of(compute).points())
        store = compute.store()
        for load in [a for a in compute.loads() if a.array_name == store.array_name]:
            for src, snk in ((store, load), (load, store), (store, store)):
                pairs = brute_force(
                    dims, points, src.affine_indices(), snk.affine_indices()
                )
                for level in range(len(dims)):
                    relation = dependence_relation(compute, src, snk, level)
                    assert relation.count_points() == len(pairs.get(level, ()))


#: Every single-kernel workload but vgg16, whose smallest layer already
#: has 43 200 instances; resnet18 contributes its residual adds.
KERNELS = [n for n in workloads.names(kind="function") if n != "vgg16"]


class TestRegistryKernels:
    @pytest.mark.parametrize("size", [5, 6])
    @pytest.mark.parametrize("name", KERNELS)
    def test_every_statement(self, name, size, isl_mode):
        function = workloads.get(name, size)
        in_reach = [c for c in function.computes if instances(c) <= MAX_INSTANCES]
        assert in_reach if name == "resnet18" else in_reach == function.computes
        for compute in in_reach:
            check_compute(compute)


class TestDnnStatements:
    """The vgg16 and resnet18 conv statements are out of enumeration's
    reach, yet they are where witness pairs answer most cuts: hold every
    statement stage 1 starts from and every one it ends with to the
    Fourier-Motzkin-only answers of ``REPRO_ISL_REFERENCE`` mode."""

    @pytest.mark.parametrize("name", ["vgg16", "resnet18"])
    def test_default_matches_reference_mode(self, name):
        function = workloads.get(name, 4)
        statements = (
            PolyProgram(function).statements
            + PolyProgram(function)
            .apply_schedule(plan_stage1(function).directives)
            .statements
        )
        answers = {}
        for reference in (False, True):
            _memo.clear_all()
            previous = _intern.set_reference_mode(reference)
            try:
                answers[reference] = [
                    carried_for_statement(stmt, kinds=("RAW", "WAR", "WAW"))
                    for stmt in statements
                ]
            finally:
                _intern.set_reference_mode(previous)
                _memo.clear_all()
        assert any(answers[False])
        assert answers[False] == answers[True]


#: (workload, size) drawn round-robin by the fuzz cases below.
FUZZ_TARGETS = (
    ("gemm", 4), ("bicg", 5), ("atax", 4), ("mvt", 5), ("jacobi-1d", 6),
    ("jacobi-2d", 5), ("seidel", 4), ("heat-1d", 6), ("blur", 5), ("syrk", 4),
)
FUZZ_SEEDS = range(40)


class TestFuzzedSchedules:
    def test_transformed_statements(self, isl_mode):
        """Random legal skew/split/tile/reverse/shift/interchange chains."""
        kinds = set()
        statements = inexact = 0
        for seed in FUZZ_SEEDS:
            name, size = FUZZ_TARGETS[seed % len(FUZZ_TARGETS)]
            function = random_schedule(workloads.get(name, size), random.Random(seed))
            kinds.update(type(d).__name__ for d in function.schedule)
            strided = {
                d.compute_name for d in function.schedule if isinstance(d, (Split, Tile))
            }
            for stmt in PolyProgram(function).apply_schedule().statements:
                exact = check_statement(stmt, exact=stmt.name not in strided)
                statements += 1
                inexact += not exact
        assert statements >= 50
        assert {"Skew", "Split", "Tile", "Reverse"} <= kinds
        # Conservative (never wrong) answers on strided domains: 12 of
        # 64 statements when this was written; more means lost precision.
        assert inexact <= 12

    def test_strided_domain_keeps_its_constant_entry(self, isl_mode):
        """The counter-example that ruled out a projected distance
        polyhedron: ``4*ko + ki`` in [12, 19] visits ko in {3, 4} only,
        so the level-0 distance is the constant 1 -- which projecting
        the source dims out over the rationals forgets."""
        from repro.isl.affine import AffineExpr
        from repro.isl.constraint import Constraint
        from repro.isl.sets import BasicSet

        tile = 4 * AffineExpr.var("ko") + AffineExpr.var("ki")
        domain = BasicSet(
            ("ko", "ki", "j"),
            [Constraint.ge(tile, 12), Constraint.le(tile, 19),
             Constraint.ge("ki", 0), Constraint.le("ki", 3),
             Constraint.ge("j", 0), Constraint.le("j", 7)],
        )
        index = [AffineExpr.var("j")]
        deps = carried_dependences_generic(
            ["ko", "ki", "j"], domain, [("RAW", "A", index, index)],
            {"ko": 2, "ki": 4, "j": 8},
        )
        points = list(domain.points())
        assert found(deps) == expected(["ko", "ki", "j"], points, index, index)
        assert deps[0].distance.entries == (1, None, 0)
