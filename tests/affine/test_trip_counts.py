"""Lowered loop nests and the latency model's trip counts, by execution.

Every loop of a lowered kernel is run the slow way: its bounds are
evaluated at each entry with the iterator values of the enclosing loops,
``affine.if`` guards are checked, and every store is recorded with the
iteration it runs at.  Two facts are checked against that walk:

* each statement runs exactly once per point of its polyhedral domain;
* the trip count the estimator gives a loop (``max_trip_count`` with the
  trip counts of the enclosing loops as extents) is the true trip count
  of every entry when the bounds are constant, and covers it otherwise
  whenever the enclosing iterators the bounds read stay in the
  ``[0, extent)`` box the envelope assumes.
"""

import random
from collections import defaultdict

import pytest

from repro import workloads
from repro.affine import AffineForOp, AffineIfOp, AffineStoreOp, lower_program
from repro.dse.stage1 import plan_stage1
from repro.fuzz.generator import random_schedule
from repro.polyir.program import PolyProgram

#: Every single-kernel workload but the two DNNs, whose conv layers keep
#: their channel counts at any size and are too large to walk.
KERNELS = [n for n in workloads.names(kind="function") if n not in ("vgg16", "resnet18")]


def walk(func):
    """``(entries, runs)``: per loop, ``(iterator values, trip)`` of each
    entry; per statement, the iteration tuple of each store it makes."""
    entries = defaultdict(list)
    runs = defaultdict(list)
    values = {}

    def visit(ops):
        for op in ops:
            if isinstance(op, AffineForOp):
                lo = max(b.evaluate(values) for b in op.lowers)
                hi = min(b.evaluate(values) for b in op.uppers)
                entries[op].append((dict(values), max(0, hi - lo + 1)))
                for value in range(lo, hi + 1):
                    values[op.iterator] = value
                    visit(op.body)
                values.pop(op.iterator, None)
            elif isinstance(op, AffineIfOp):
                if all(c.satisfied_by(values) for c in op.conditions):
                    visit(op.body)
            elif isinstance(op, AffineStoreOp):
                runs[op.statement_name()].append(dict(values))

    visit(func.body)
    return entries, runs


def estimator_trips(func):
    """Per loop, ``(trip, extents)`` as the latency model computes them."""
    trips = {}

    def visit(ops, extents):
        for op in ops:
            if isinstance(op, AffineForOp):
                trip = op.max_trip_count(extents)
                trips[op] = (trip, extents)
                visit(op.body, {**extents, op.iterator: trip})
            elif isinstance(op, AffineIfOp):
                visit(op.body, extents)

    visit(func.body, {})
    return trips


def check_trips(func):
    """The estimator's trip counts against the walk; returns how many
    loops have non-constant bounds."""
    entries, _ = walk(func)
    variable = 0
    for loop, (trip, extents) in estimator_trips(func).items():
        constant = loop.constant_trip_count()
        if constant is not None:
            assert trip == constant
            assert all(true_trip == trip for _, true_trip in entries[loop])
            continue
        variable += 1
        read = {
            name
            for bound in loop.lowers + loop.uppers
            for name in bound.expr.coeffs
        }
        for values, true_trip in entries[loop]:
            if all(0 <= values[name] < extents.get(name, 1) for name in read):
                assert true_trip <= trip, (loop.iterator, values, extents)
    return variable


def check_domains(program, func):
    """Each statement runs once per point of its domain, in loop order."""
    _, runs = walk(func)
    for stmt in program.statements:
        dims = stmt.loop_order
        domain = {tuple(p[d] for d in dims) for p in stmt.domain.points()}
        visited = [tuple(values[d] for d in dims) for values in runs[stmt.name]]
        assert sorted(visited) == sorted(domain), stmt.name


def scheduled(name, schedule):
    function = workloads.get(name, 6)
    program = PolyProgram(function)
    if schedule == "stage1":
        return program.apply_schedule(plan_stage1(function).directives)
    return program.apply_schedule()


class TestRegistryKernels:
    @pytest.mark.parametrize("schedule", ["default", "stage1"])
    @pytest.mark.parametrize("name", KERNELS)
    def test_walk_matches_domains_and_trip_counts(self, name, schedule, isl_mode):
        program = scheduled(name, schedule)
        func = lower_program(program)
        check_domains(program, func)
        check_trips(func)


#: (workload, size) drawn round-robin by the fuzzed schedules below.
FUZZ_TARGETS = (
    ("gemm", 4), ("bicg", 5), ("atax", 4), ("mvt", 5), ("jacobi-1d", 6),
    ("jacobi-2d", 5), ("seidel", 4), ("heat-1d", 6), ("blur", 5), ("syrk", 4),
    ("trisolv", 6), ("2mm", 4),
)


class TestFuzzedSchedules:
    def test_random_schedules(self):
        """Random legal skew/split/tile/reverse/shift/interchange chains,
        whose bounds are where trip counts stop being constant."""
        variable = 0
        for seed in range(60):
            name, size = FUZZ_TARGETS[seed % len(FUZZ_TARGETS)]
            function = random_schedule(workloads.get(name, size), random.Random(seed))
            program = PolyProgram(function).apply_schedule()
            func = lower_program(program)
            check_domains(program, func)
            variable += check_trips(func)
        # 66 of 286 loops when this was written; far fewer would mean the
        # schedules stopped reaching the envelope.
        assert variable >= 30
