"""The integer-row set operations against the object-level oracle.

``tests/isl/oracle.py`` keeps the Fourier-Motzkin step, the loop-bound
extraction and the parallel pruning as they ran over ``Constraint``
lists.  The row versions must give the same constraints and the same
loop bounds, in the same order -- on seeded random systems (equalities
with non-unit coefficients, parallel rows, contradictions) and on the
systems the AST build meets in real sweeps -- in both isl modes.
"""

import random

import pytest

from repro import workloads
from repro.dse import DseOptions, auto_dse
from repro.isl import memo as _memo
from repro.isl import sets
from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, GE, Constraint, EliminationBlowup
from repro.isl.sets import BasicSet
from repro.serve import SessionContext
from tests.isl import oracle

DIMS = ("i", "j", "k", "l")


def _random_system(rng, size):
    cons = []
    for _ in range(rng.randint(1, size)):
        coeffs = {d: rng.randint(-6, 6) for d in rng.sample(DIMS, rng.randint(1, 4))}
        kind = EQ if rng.random() < 0.2 else GE
        cons.append(Constraint(AffineExpr(coeffs, rng.randint(-30, 30)), kind))
    for constraint in rng.sample(cons, min(3, len(cons))):
        # A parallel row, and the negation of an equality.
        cons.append(Constraint(constraint.expr + rng.randint(-4, 4), constraint.kind))
        if constraint.kind == EQ:
            cons.append(Constraint(-constraint.expr, EQ))
    # An equality with a non-unit coefficient, divisible or not.
    a, b = rng.choice(DIMS), rng.choice(DIMS)
    cons.append(Constraint(AffineExpr({a: 2, b: 4}, rng.choice((2, 3))), EQ))
    if rng.random() < 0.3:
        cons.append(Constraint(AffineExpr.const(-rng.randint(1, 3)), GE))
    rng.shuffle(cons)
    return cons


def _random_systems(seed, count, size):
    rng = random.Random(seed)
    return [(_random_system(rng, size), rng) for _ in range(count)]


def _bounds_mismatch(bset, name, context):
    """``None`` when the row and object dim_bounds agree, else both."""
    try:
        expected = oracle.dim_bounds(bset.dims, bset.constraints, name, context)
    except EliminationBlowup:
        expected = "ISL001"
    try:
        got = bset.dim_bounds(name, context)
    except EliminationBlowup:
        got = "ISL001"
    if got == expected and repr(got) == repr(expected):
        return None
    return (str(bset), name, context, got, expected)


def _mismatches(systems):
    """Every place a row operation differs from the oracle."""
    found = []
    for cons, rng in systems:
        if list(BasicSet(DIMS, cons).constraints) != oracle.construct(cons):
            found.append(("construct", cons))
        for name in DIMS:
            if oracle.row_eliminate(cons, name) != oracle.eliminate(cons, name):
                found.append(("eliminate", cons, name))
        bset = BasicSet(DIMS, cons)
        name = rng.choice(DIMS)
        context = rng.sample([d for d in DIMS if d != name], rng.randint(0, 3))
        mismatch = _bounds_mismatch(bset, name, context)
        if mismatch:
            found.append(("dim_bounds",) + mismatch)
    return found


@pytest.fixture
def no_memo():
    previous = _memo.activate(_memo.MemoContext(enabled=False))
    yield
    _memo.activate(previous)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_systems_match_the_oracle(seed, isl_mode, no_memo):
    assert _mismatches(_random_systems(seed, 80, 16)) == []


def test_a_swap_of_two_surviving_rows_is_caught(monkeypatch, no_memo):
    """The comparison is order-exact: swapping two rows of a step's
    result, at seeded positions, must show."""
    eliminate = sets._eliminate
    rng = random.Random(7)

    def swapping(rows, at, name):
        out = eliminate(rows, at, name)
        if len(out) >= 2:
            i, j = rng.sample(range(len(out)), 2)
            out[i], out[j] = out[j], out[i]
        return out

    monkeypatch.setattr(sets, "_eliminate", swapping)
    found = _mismatches(_random_systems(0, 20, 16))
    assert any(kind == "eliminate" for kind, *_ in found)


SWEEPS = {
    "gemm": lambda: workloads.get("gemm", 19),
    "seidel": lambda: workloads.get("seidel", 16),
    "2mm": lambda: workloads.get("2mm", 19),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_the_systems_of_a_sweep_match_the_oracle(name, isl_mode, monkeypatch):
    """Every ``dim_bounds`` query and projection step an uncached sweep
    makes, replayed through the oracle."""
    queries, steps = [], []
    dim_bounds, drop_dim = BasicSet.dim_bounds, BasicSet.drop_dim

    def recording_bounds(self, name, context=()):
        queries.append((self, name, tuple(context)))
        return dim_bounds(self, name, context)

    def recording_drop(self, name):
        steps.append((self, name))
        return drop_dim(self, name)

    monkeypatch.setattr(BasicSet, "dim_bounds", recording_bounds)
    monkeypatch.setattr(BasicSet, "drop_dim", recording_drop)
    with SessionContext().activate():
        auto_dse(SWEEPS[name](), options=DseOptions(resource_fraction=0.25, cache=False))
    monkeypatch.undo()
    assert queries and steps

    with SessionContext(memo=_memo.MemoContext(enabled=False)).activate():
        for bset, dim, context in queries:
            assert _bounds_mismatch(bset, dim, context) is None
        for bset, dim in steps:
            expected = oracle.construct(oracle.eliminate(list(bset.constraints), dim))
            assert list(bset.drop_dim(dim).constraints) == expected, (str(bset), dim)
