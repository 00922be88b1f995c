"""Every shortcut of the AST build against the elimination it pre-empts.

``_Nest.decide`` answers "do the enclosing loops imply this constraint"
from intervals and witnesses, and ``BasicSet._reaching`` projects only
the constraints that can reach the dim.  Neither may ever differ from
the Fourier-Motzkin code they stand in front of: the generated text is
promised bit-identical, not merely equivalent.
"""

import random

import pytest

from repro import workloads
from repro.dse import DseOptions, auto_dse
from repro.fuzz.runner import FuzzOptions, run_campaign
from repro.isl import astbuild, sets
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.isl.affine import AffineExpr as e
from repro.isl.astbuild import AstBuilder, _Nest
from repro.isl.constraint import GE, MAX_FM_PAIRS, Constraint, EliminationBlowup
from repro.isl.sets import BasicSet, LoopBound
from repro.serve import SessionContext

#: Tile factors divide 16 and the stencils' 16 - 2; nothing divides 19
#: or 17, which is where guards and non-constant bounds survive.
SIZES = (16, 19)


def _targets():
    table = {}
    for name in workloads.names(kind="function"):
        dnn = name in ("vgg16", "resnet18")
        for size in (4,) if dnn else SIZES:
            table[f"{name}@{size}"] = (
                lambda name=name, size=size: workloads.get(name, size)
            )
    for design in workloads.names(kind="dataflow"):
        for stage in workloads.get(design, SIZES[0]).stages:
            for size in (16, 22):  # conv-block needs an even size
                table[f"{design}.{stage}@{size}"] = (
                    lambda design=design, stage=stage, size=size:
                    workloads.get(design, size).stages[stage].function
                )
    return table


TARGETS = _targets()


@pytest.fixture
def tally(monkeypatch):
    """Runs every implication test both ways; the elimination's answer is
    the one used, so a wrong shortcut cannot hide behind a later one.
    The bound-pruning box test that runs before an implication test is
    built (``_boxed``) must be ``decide``'s box test on the same trial
    nest, and the elimination must agree wherever it answers.  So must
    the box test the guards run on a domain row before its constraint is
    built (``_row_boxed``), counted as decided."""
    counts = {"decided": 0, "eliminated": 0, "boxed": 0}
    boxed = astbuild._boxed
    row_boxed = astbuild._row_boxed

    def checked_row_box(nest, dims, row):
        answer = row_boxed(nest, dims, row)
        order = sorted(range(len(dims)), key=dims.__getitem__)
        constraint = sets.row_constraint(tuple(dims), order, row)
        assert answer == (
            constraint.kind == GE and nest.extreme(constraint.expr, low=True) >= 0
        )
        if answer:
            counts["decided"] += 1
            assert AstBuilder._implied(nest.context(), constraint)
        return answer

    def checked_box(nest, candidate, sides):
        answer = boxed(nest, candidate, sides)
        trial = nest.extended("_trial", *sides)
        negated = astbuild._bound_constraint("_trial", candidate)
        assert answer == (trial.extreme(negated.expr, low=True) >= 0)
        if answer:
            counts["boxed"] += 1
            violated = Constraint(-negated.expr - 1, GE)
            assert trial.context().with_constraints([violated]).is_empty()
        return answer

    def checked(nest, constraint, toward, eliminate):
        decided = nest.decide(constraint, toward)
        answer = eliminate()
        if decided is None:
            counts["eliminated"] += 1
        else:
            counts["decided"] += 1
            assert decided == answer, (nest.levels, str(constraint))
        return answer

    monkeypatch.setattr(astbuild, "_implies", checked)
    monkeypatch.setattr(astbuild, "_boxed", checked_box)
    monkeypatch.setattr(astbuild, "_row_boxed", checked_row_box)
    return counts


class TestDecisionsAgainstElimination:
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_every_candidate_of_a_sweep(self, target, isl_mode, tally):
        dnn = target.startswith(("vgg16", "resnet18"))
        with SessionContext().activate():
            auto_dse(
                TARGETS[target](),
                options=DseOptions(resource_fraction=0.05 if dnn else 0.25),
            )
        assert tally["decided"] > 0

    @pytest.mark.fuzz
    def test_fuzzed_skew_tile_shift_chains(self, isl_mode, tally):
        campaign = run_campaign(FuzzOptions(seed=20240302, trials=200))
        assert all(trial.ok for trial in campaign.results)
        # Skewed nests are where the intervals stop deciding.
        assert tally["decided"] > 10 * tally["eliminated"] > 0


def _loops(nest_order):
    """``c in [1, 5]``, ``a in [ceil(c/2), 9]`` and the same for d, b."""
    nest = _Nest()
    for outer, inner in nest_order:
        nest = nest.extended(
            outer, [LoopBound(e.const(1), 1, True)], [LoopBound(e.const(5), 1, False)]
        ).extended(
            inner, [LoopBound(e.var(outer), 2, True)], [LoopBound(e.const(9), 1, False)]
        )
    return nest, nest.context()


class TestEnclosureTrap:
    """``a + b >= 2`` holds at every integer point of the loops, but only
    because ``ceil(c/2) >= 1``; rationally ``a = b = 1/2`` is allowed."""

    def test_the_box_is_rational_so_the_guard_stays(self, isl_mode):
        nest, context = _loops([("c", "a"), ("d", "b")])
        guard = Constraint.ge(e.var("a") + e.var("b"), 2)
        assert all(context.with_constraints([guard]).contains(p) for p in context.points())
        assert AstBuilder._implied(context, guard) is False
        assert nest.box["a"] == nest.box["b"] == (0, 9)  # floor(1/2), not ceil
        assert nest.decide(guard, guard.expr._coeffs) is None

    def test_eliminations_integer_strength_depends_on_its_order(self, isl_mode):
        # Same loops; these names sort the outer pair first, and then gcd
        # tightening (2*y >= 1 becomes y >= 1) happens to prove the guard.
        nest, context = _loops([("p", "y"), ("q", "z")])
        guard = Constraint.ge(e.var("y") + e.var("z"), 2)
        assert AstBuilder._implied(context, guard) is True
        assert nest.decide(guard, guard.expr._coeffs) is None

    def test_a_constant_bound_is_taken_exactly(self, isl_mode):
        # 2*i >= 5 is in the context as i >= 3: the box may say so.
        nest = _Nest().extended(
            "i", [LoopBound(e.const(5), 2, True)], [LoopBound(e.const(9), 1, False)]
        )
        guard = Constraint.ge(e.var("i"), 3)
        assert nest.box["i"] == (3, 9) and guard in nest.context().constraints
        assert nest.decide(guard, guard.expr._coeffs) is True
        assert AstBuilder._implied(nest.context(), guard) is True

    def test_a_bound_the_loops_were_built_from_is_known(self, isl_mode):
        # n = 10 split by 4: the box cannot prove the partial tile's bound,
        # no iteration violates it, but it is one of the loops' own.
        upper = LoopBound(e.const(9) - 4 * e.var("io"), 1, False)
        nest = _Nest().extended(
            "io", [LoopBound(e.const(0), 1, True)], [LoopBound(e.const(2), 1, False)]
        ).extended(
            "ii", [LoopBound(e.const(0), 1, True)], [LoopBound(e.const(3), 1, False), upper]
        )
        guard = Constraint.le(4 * e.var("io") + e.var("ii"), 9)
        assert nest.extreme(guard.expr, low=True) < 0 and nest.known() == [guard]
        assert nest.decide(guard, guard.expr._coeffs) is True
        assert AstBuilder._implied(nest.context(), guard) is True

    def test_a_witness_binds_the_elimination(self, isl_mode):
        nest, context = _loops([("c", "a"), ("d", "b")])
        guard = Constraint.ge(e.var("a") + e.var("b"), 3)
        assert nest.decide(guard, guard.expr._coeffs) is False  # a = b = 1
        assert AstBuilder._implied(context, guard) is False


def _involving(bset, name):
    return [c for c in bset.constraints if c.involves(name)]


class TestReachingProjection:
    """``_reaching(name, keep).project_onto(keep)`` and ``project_onto(keep)``
    agree on the constraints ``dim_bounds`` reads, order included."""

    def _check(self, bset, rng):
        for name in bset.dims:
            others = [d for d in bset.dims if d != name]
            keep = rng.sample(others, rng.randint(0, len(others))) + [name]
            part = bset._reaching(name, keep)
            assert _involving(part.project_onto(keep), name) == _involving(
                bset.project_onto(keep), name
            ), (bset, name, keep)

    def test_random_constrained_systems(self, isl_mode):
        rng = random.Random(20240302)
        smaller = 0
        for _ in range(300):
            dims = ["a", "b", "c", "d", "f", "g"][: rng.randint(2, 6)]
            box = {}
            for d in dims:
                lo = rng.randint(-4, 4)
                box[d] = (lo, lo + rng.randint(-1, 5))
            extra = []
            for _ in range(rng.randint(0, 4)):
                some = rng.sample(dims, rng.randint(1, min(3, len(dims))))
                expr = e({d: rng.randint(-4, 4) for d in some}, rng.randint(-6, 6))
                extra.append(Constraint(expr, rng.choice(["==", ">=", ">="])))
            bset = BasicSet.box(box, order=dims).with_constraints(extra)
            self._check(bset, rng)
            smaller += len(bset._reaching(dims[0], dims[:1]).constraints) < len(bset.constraints)
        assert smaller > 100  # the subset is usually a proper one

    def test_coupled_split_pairs_and_pivots(self, isl_mode):
        rng = random.Random(77041)
        i, j = 4 * e.var("i0") + e.var("i1"), 3 * e.var("j0") + e.var("j1")
        bset = BasicSet(
            ["i0", "i1", "j0", "j1", "k", "m"],
            [Constraint.ge(i, 1), Constraint.le(i, 13),
             Constraint.ge("i1", 0), Constraint.le("i1", 3),
             Constraint.ge(j, 0), Constraint.le(j, i),
             Constraint.ge("j1", 0), Constraint.le("j1", 2),
             Constraint.eq(e.var("k"), e.var("i1") + 2),       # unit pivot
             Constraint.eq(2 * e.var("m"), e.var("j0") + 1)],  # non-unit pivot
        )
        for _ in range(20):
            self._check(bset, rng)

    def test_an_empty_unrelated_component_does_not_reach(self, isl_mode):
        bset = BasicSet.box({"i": (0, 7), "j": (0, 7), "z": (5, 2)}).with_constraints(
            [Constraint.le("j", e.var("i"))]
        )
        assert bset.is_empty()
        assert "z" not in bset._reaching("j", ["i", "j"]).dims
        self._check(bset, random.Random(0))

    def test_a_runaway_unrelated_component_is_not_eliminated(self, isl_mode):
        """The documented difference: ``ISL001`` only trips on constraints
        that can reach the dim (the reference switch still eliminates all)."""
        pairs = int(MAX_FM_PAIRS ** 0.5) + 1
        x, y = e.var("x"), e.var("y")
        runaway = [Constraint.ge(x + k * y, -k) for k in range(1, pairs + 1)]
        runaway += [Constraint.ge(k * y - x, -k) for k in range(1, pairs + 1)]
        bset = BasicSet.box({"i": (0, 7), "j": (0, 7)}, order=["i", "j"])
        bset = BasicSet(["i", "j", "x", "y"], list(bset.constraints) + runaway)
        with pytest.raises(EliminationBlowup):
            bset.project_onto(["i"])
        assert len(bset._reaching("i", ["i"]).constraints) == 2
        if isl_mode == "fast":
            assert bset.constant_bounds("i") == (0, 7)
        else:
            with pytest.raises(EliminationBlowup):
                bset.constant_bounds("i")


class TestDirectBoundsRead:
    """``dim_bounds`` reads a dim's bounds straight off its constraints
    when none of them mentions a dim outside the context, where the
    reference mode projects.  Every system an uncached sweep of each
    registry kernel and dataflow stage asks (AST build and
    ``loop_extent`` alike) gets both answers."""

    def test_every_system_a_sweep_asks(self, monkeypatch):
        asked = {}
        dim_bounds = BasicSet.dim_bounds

        def recording(bset, name, context=()):
            key = (bset.dims, bset.constraints, name, tuple(context))
            asked.setdefault(key, (bset, name, tuple(context)))
            return dim_bounds(bset, name, context)

        monkeypatch.setattr(_intern, "_REFERENCE", False)
        monkeypatch.setattr(BasicSet, "dim_bounds", recording)
        for target in sorted(TARGETS):
            if not target.startswith(("vgg16", "resnet18")):
                with SessionContext().activate():
                    auto_dse(TARGETS[target](), options=DseOptions(cache=False))
        monkeypatch.setattr(BasicSet, "dim_bounds", dim_bounds)
        direct = 0
        with SessionContext().activate():
            _memo.set_enabled(False)
            for bset, name, context in asked.values():
                keep = set(context) | {name}
                direct += all(keep.issuperset(c.dims()) for c in _involving(bset, name))
                monkeypatch.setattr(_intern, "_REFERENCE", False)
                fast = bset.dim_bounds(name, context)
                monkeypatch.setattr(_intern, "_REFERENCE", True)
                assert fast == bset.dim_bounds(name, context), (bset, name, context)
        assert direct > len(asked) // 2


def _counting(monkeypatch, module, name):
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.perfsmoke
class TestPerfsmokeCounts:
    """Count-based guards (no timing) on one uncached 256-point sweep."""

    def _sweep(self, name, monkeypatch):
        # The counts are the fast path's: pin it under REPRO_ISL_REFERENCE=1.
        monkeypatch.setattr(_intern, "_REFERENCE", False)
        fallbacks = []

        def counted(nest, constraint, toward, eliminate):
            decided = nest.decide(constraint, toward)
            if decided is None:
                fallbacks.append(eliminate.__qualname__)
                return eliminate()
            return decided

        monkeypatch.setattr(astbuild, "_implies", counted)
        eliminations = _counting(monkeypatch, sets, "_eliminate")
        with SessionContext().activate():
            auto_dse(workloads.get(name, 256), options=DseOptions(cache=False))
        guards = [f for f in fallbacks if "_guards" in f]
        return len(guards), len(fallbacks) - len(guards), len(eliminations)

    def test_a_box_nest_asks_the_elimination_nothing(self, monkeypatch):
        guards, prunes, eliminations = self._sweep("gemm", monkeypatch)
        assert (guards, prunes) == (0, 0)
        # 1 073 at the parent commit (bfdf5a9), 127 with both shortcuts.
        assert eliminations <= 1073 // 3

    def test_a_stencil_keeps_its_few_fallbacks(self, monkeypatch):
        guards, prunes, _ = self._sweep("jacobi-2d", monkeypatch)
        assert guards == 0
        assert prunes <= 12
