"""Seeded random generation of *legal* schedules.

Every directive the generator proposes is checked once, against the
live program under the accepted prefix, by a
:class:`repro.preflight.Preflight` state -- the same state
:func:`repro.preflight.preflight_schedule` loops over -- and accepted
only when clean.  A generated schedule therefore never contains a
directive the legality checker would reject: the fuzzer explores the
space the framework claims is safe, and any differential mismatch
downstream is a real bug (in the transformation pipeline, the compiled
simulator, or the legality checker itself).

Two structural rules keep the differential comparison sound against
known holes in the checker:

* generated ``after``/``fuse`` directives are marked ``structural=True``
  so the DSL reference executor interleaves the statements exactly like
  the transformed program (the preflight fusion check is one-directional
  and would otherwise let reverse-direction anti-dependences through);
* a statement involved in a fusion is never also loop-transformed in
  the same schedule (and vice versa): the reference executor replays
  *only* structural directives, so a fusion level resolved against a
  transformed loop order on one side and the original on the other
  would interleave differently by construction, not by bug.

Determinism: all choices are drawn from the caller's
:class:`random.Random`; the same seed over the same workload always
yields the same schedule.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.dsl.function import Function
from repro.dsl.schedule import (
    After,
    Directive,
    Fuse,
    Interchange,
    Pipeline,
    Reverse,
    Schedule,
    ScheduleError,
    Shift,
    Skew,
    Split,
    Tile,
    Unroll,
)
from repro.isl.constraint import EliminationBlowup
from repro.polyir.transforms import TransformError
from repro.preflight import Preflight

#: Proposal kinds with their relative weights.  Loop transformations
#: dominate; hardware annotations and fusions ride along.
_KINDS = (
    ("interchange", 4),
    ("split", 3),
    ("tile", 3),
    ("skew", 2),
    ("reverse", 2),
    ("shift", 2),
    ("fuse", 2),
    ("pipeline", 2),
    ("unroll", 2),
    ("partition", 2),
)
_KIND_NAMES = [name for name, weight in _KINDS for _ in range(weight)]

_SPLIT_FACTORS = (2, 3, 4)
_TILE_FACTORS = (2, 3, 4)
_SKEW_FACTORS = (-2, -1, 1, 2)
_SHIFT_OFFSETS = (-2, -1, 1, 2, 3)
_PIPELINE_IIS = (1, 2, 4)
_UNROLL_FACTORS = (0, 2, 4)
_PARTITION_KINDS = ("cyclic", "block", "complete")


class _State:
    """Tracks the accepted prefix: its legality state and which
    statements it fused or loop-transformed."""

    def __init__(self, function: Function, rng: random.Random):
        self.function = function
        self.rng = rng
        self.preflight = Preflight(function)
        self.fresh = 0
        #: statements that received a loop transformation
        self.transformed: Set[str] = set()
        #: statements involved in an after/fuse (either side)
        self.fused: Set[str] = set()
        #: original loop order per statement, for fusion levels
        self.original = {
            stmt.name: list(stmt.loop_order)
            for stmt in self.preflight.program.statements
        }

    def name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}_f{self.fresh}"

    def pick_statement(self, exclude: Optional[Set[str]] = None):
        candidates = [
            stmt
            for stmt in self.preflight.program.statements
            if not exclude or stmt.name not in exclude
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)


def _propose(state: _State) -> Optional[Directive]:
    rng = state.rng
    kind = rng.choice(_KIND_NAMES)

    if kind == "partition":
        arrays = [p for p in state.function.placeholders() if p.partition_scheme is None]
        if not arrays:
            return None
        target = rng.choice(arrays)
        factors = [
            rng.choice([f for f in (1, 2, 4) if f <= extent])
            for extent in target.shape
        ]
        if all(f == 1 for f in factors):
            factors[rng.randrange(len(factors))] = min(2, target.shape[0])
        target.partition(factors, rng.choice(_PARTITION_KINDS))
        return None  # applied directly; not a schedule directive

    if kind == "fuse":
        stmt = state.pick_statement(exclude=state.transformed)
        if stmt is None:
            return None
        other = state.pick_statement(exclude=state.transformed | {stmt.name})
        if other is None:
            return None
        shared: List[str] = []
        for a, b in zip(state.original[stmt.name], state.original[other.name]):
            if a != b:
                break
            shared.append(a)
        level = rng.choice([None] + shared)
        if level is None or rng.random() < 0.5:
            # ``After`` at a shared level is the same fusion family as
            # ``Fuse`` but places this compute second; drawing both
            # covers the ordered half of the fusion surface.
            return After(stmt.name, other.name, level, structural=True)
        return Fuse(stmt.name, other.name, level, structural=True)

    stmt = state.pick_statement(exclude=state.fused if kind not in ("pipeline", "unroll") else None)
    if stmt is None:
        return None
    loops = list(stmt.loop_order)
    if not loops:
        return None

    if kind == "interchange":
        if len(loops) < 2:
            return None
        i, j = rng.sample(loops, 2)
        return Interchange(stmt.name, i, j)
    if kind == "split":
        i = rng.choice(loops)
        return Split(stmt.name, i, rng.choice(_SPLIT_FACTORS),
                     state.name(i + "o"), state.name(i + "i"))
    if kind == "tile":
        if len(loops) < 2:
            return None
        i, j = rng.sample(loops, 2)
        return Tile(stmt.name, i, j, rng.choice(_TILE_FACTORS), rng.choice(_TILE_FACTORS),
                    state.name(i + "t"), state.name(j + "t"),
                    state.name(i + "p"), state.name(j + "p"))
    if kind == "skew":
        if len(loops) < 2:
            return None
        i, j = rng.sample(loops, 2)
        return Skew(stmt.name, i, j, rng.choice(_SKEW_FACTORS),
                    state.name(i + "s"), state.name(j + "s"))
    if kind == "reverse":
        i = rng.choice(loops)
        return Reverse(stmt.name, i, state.name(i + "r"))
    if kind == "shift":
        i = rng.choice(loops)
        return Shift(stmt.name, i, rng.choice(_SHIFT_OFFSETS), state.name(i + "h"))
    if kind == "pipeline":
        return Pipeline(stmt.name, rng.choice(loops), rng.choice(_PIPELINE_IIS))
    if kind == "unroll":
        return Unroll(stmt.name, rng.choice(loops), rng.choice(_UNROLL_FACTORS))
    return None


def random_schedule(
    function: Function,
    rng: random.Random,
    max_directives: int = 6,
) -> Function:
    """Attach a random legal schedule (and partitions) to ``function``.

    Mutates ``function`` in place (``function.schedule`` is replaced,
    placeholders may gain partition schemes) and returns it.  Every
    accepted directive was checked clean against the accepted prefix,
    so the whole schedule preflights with zero errors; proposals the
    legality checker rejects are simply dropped.
    """
    state = _State(function, rng)
    accepted: List[Directive] = []
    target = rng.randint(1, max_directives)
    attempts = 0
    while len(accepted) < target and attempts < 10 * max_directives:
        attempts += 1
        try:
            directive = _propose(state)
        except (ScheduleError, TransformError, ValueError):
            continue  # a proposal with out-of-range parameters; redraw
        if directive is None:
            continue
        try:
            if not state.preflight.extend(directive):
                continue
        except EliminationBlowup:
            continue  # dependence analysis of this prefix is out of bounds
        accepted.append(directive)
        if isinstance(directive, (After, Fuse)):
            state.fused.add(directive.compute_name)
            state.fused.add(directive.other)
        elif isinstance(directive, (Interchange, Split, Tile, Skew, Reverse, Shift)):
            state.transformed.add(directive.compute_name)
    function.schedule = Schedule(accepted)
    return function
