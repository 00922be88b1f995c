"""Schedule-legality preflight: reject illegal directives before lowering.

The paper's framework "ensures correctness with automatic validation";
this module is the validation front line.  A :class:`Preflight` state
holds a live :class:`~repro.polyir.program.PolyProgram` and, before
applying each directive, checks it against the statement's
loop-carried dependences (recomputed on the *transformed* statement, so
legality composes across a directive sequence).  Violations become
``LEG0xx`` diagnostics naming the violated dependence instead of wrong
HLS C; structural mistakes (unknown computes/loops, name collisions)
become ``SCH00x`` diagnostics.

The checks are conservative: a directive is rejected when it either
provably violates a dependence or cannot be proven legal.  Pipelining
across a carried RAW dependence is reported as a *warning* (the design
is correct, merely slower than the target II suggests).
"""

from __future__ import annotations

from typing import List, Optional

from repro.diagnostics import DiagnosticEngine, SourceLocation
from repro.dsl.function import Function
from repro.dsl.schedule import (
    After,
    Directive,
    Fuse,
    Interchange,
    Pipeline,
    Reverse,
    Schedule,
    Shift,
    Skew,
    Split,
    Tile,
    Unroll,
)
from repro.dse.analysis import carried_for_statement
from repro.polyir.program import PolyProgram
from repro.polyir.statement import PolyStatement
from repro.polyir.transforms import TransformError

# Dependence kinds that constrain execution-order changes.  RAW alone
# bounds pipelining; reordering must also preserve WAR/WAW.
ORDER_KINDS = ("RAW", "WAR", "WAW")


def preflight_function(
    function: Function, engine: Optional[DiagnosticEngine] = None
) -> DiagnosticEngine:
    """Check every directive in ``function``'s schedule for legality."""
    return preflight_schedule(function, function.schedule, engine)


def preflight_schedule(
    function: Function,
    schedule: Optional[Schedule] = None,
    engine: Optional[DiagnosticEngine] = None,
) -> DiagnosticEngine:
    """Replay ``schedule`` with legality checks; collect diagnostics.

    Directives that fail a check are *not* applied, so one bad directive
    does not cascade into spurious errors on the rest of the schedule.
    """
    if schedule is None:
        schedule = function.schedule
    state = Preflight(function, engine)
    for directive in schedule:
        state.extend(directive)
    return state.engine


class Preflight:
    """The legality state of an accepted schedule prefix.

    Holds the live :class:`PolyProgram` under the directives accepted so
    far and the engine their diagnostics went to.  :meth:`extend` checks
    one more directive against the current statements and applies it
    only when clean, so a caller growing a schedule one directive at a
    time pays one check per directive, never a replay of the prefix.
    """

    def __init__(self, function: Function, engine: Optional[DiagnosticEngine] = None):
        self.function = function
        self.engine = DiagnosticEngine() if engine is None else engine
        self.program = PolyProgram(function)

    def extend(self, directive: Directive) -> bool:
        """Check and apply ``directive``; whether it was accepted.

        A rejected directive leaves the program untouched: the checks
        only read statements, and a transform swaps its new statement
        in only once it has been built.  An ``EliminationBlowup`` from
        the dependence analysis propagates with the state unchanged.
        """
        before = len(self.engine.errors())
        _check_directive(self.program, directive, self.function, self.engine)
        if len(self.engine.errors()) > before:
            return False
        try:
            self.program.apply_directive(directive)
        except (TransformError, KeyError) as exc:
            self.engine.error(
                "SCH005",
                f"could not apply {_describe(directive)}: {_message_of(exc)}",
                location=_loc(directive, self.function),
            )
            return False
        return True


# -- helpers -------------------------------------------------------------------


def _message_of(exc: BaseException) -> str:
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _describe(directive: Directive) -> str:
    return f"{type(directive).__name__.lower()} on compute {directive.compute_name!r}"


def _loc(directive: Directive, function: Function) -> SourceLocation:
    loc = getattr(directive, "loc", None)
    if isinstance(loc, SourceLocation):
        return loc
    return SourceLocation(
        function=function.name, compute=directive.compute_name
    )


def _statement(
    program: PolyProgram,
    directive: Directive,
    function: Function,
    engine: DiagnosticEngine,
    name: Optional[str] = None,
) -> Optional[PolyStatement]:
    target = directive.compute_name if name is None else name
    try:
        return program.statement(target)
    except KeyError:
        known = ", ".join(s.name for s in program.statements)
        engine.error(
            "SCH002",
            f"{_describe(directive)}: no compute named {target!r} "
            f"(known computes: {known})",
            location=_loc(directive, function),
        )
        return None


def _check_levels(
    stmt: PolyStatement,
    levels: List[str],
    directive: Directive,
    function: Function,
    engine: DiagnosticEngine,
) -> bool:
    ok = True
    for level in levels:
        if level not in stmt.loop_order:
            engine.error(
                "SCH003",
                f"{_describe(directive)}: no loop named {level!r} "
                f"(current loops of {stmt.name!r}: "
                f"{', '.join(stmt.loop_order)})",
                location=_loc(directive, function),
            )
            ok = False
    return ok


def _check_fresh_names(
    stmt: PolyStatement,
    names: List[str],
    directive: Directive,
    function: Function,
    engine: DiagnosticEngine,
) -> bool:
    ok = True
    for name in names:
        if name in stmt.loop_order or name in stmt.domain.dims:
            engine.error(
                "SCH004",
                f"{_describe(directive)}: new loop name {name!r} is already "
                f"in use by {stmt.name!r}",
                location=_loc(directive, function),
            )
            ok = False
    if len(set(names)) != len(names):
        engine.error(
            "SCH004",
            f"{_describe(directive)}: duplicate new loop names {names}",
            location=_loc(directive, function),
        )
        ok = False
    return ok


def _order_violations(deps, order: List[str]):
    """Dependences that stop being lexicographically positive under ``order``.

    Mirrors :func:`repro.dse.analysis.legal_order` but returns the
    offending dependences so diagnostics can name them.
    """
    bad = []
    for dep in deps:
        legal = False
        for dim in order:
            if dim not in dep.dims:
                continue
            entry = dep.distance[dim]
            if entry is None:
                if dim == dep.carried_dim:
                    legal = True
                break  # unknown sign: cannot rely on later dims
            if entry > 0:
                legal = True
                break
            if entry < 0:
                break
        if not legal:
            bad.append(dep)
    return bad


# -- per-directive checks ------------------------------------------------------


def _check_directive(
    program: PolyProgram,
    directive: Directive,
    function: Function,
    engine: DiagnosticEngine,
) -> None:
    stmt = _statement(program, directive, function, engine)
    if stmt is None:
        return
    loc = _loc(directive, function)

    if isinstance(directive, Interchange):
        if not _check_levels(stmt, [directive.i, directive.j], directive, function, engine):
            return
        _check_interchange(stmt, directive, engine, loc)
    elif isinstance(directive, Split):
        if not _check_levels(stmt, [directive.i], directive, function, engine):
            return
        _check_fresh_names(stmt, [directive.i0, directive.i1], directive, function, engine)
    elif isinstance(directive, Tile):
        if not _check_levels(stmt, [directive.i, directive.j], directive, function, engine):
            return
        if not _check_fresh_names(
            stmt,
            [directive.i0, directive.j0, directive.i1, directive.j1],
            directive, function, engine,
        ):
            return
        _check_tile(stmt, directive, engine, loc)
    elif isinstance(directive, Skew):
        if not _check_levels(stmt, [directive.i, directive.j], directive, function, engine):
            return
        if not _check_fresh_names(
            stmt, [directive.ip, directive.jp], directive, function, engine
        ):
            return
        _check_skew(stmt, directive, engine, loc)
    elif isinstance(directive, Reverse):
        if not _check_levels(stmt, [directive.i], directive, function, engine):
            return
        if not _check_fresh_names(stmt, [directive.i_new], directive, function, engine):
            return
        _check_reverse(stmt, directive, engine, loc)
    elif isinstance(directive, Shift):
        if not _check_levels(stmt, [directive.i], directive, function, engine):
            return
        _check_fresh_names(stmt, [directive.i_new], directive, function, engine)
        # A pure iteration-space translation: always legal.
    elif isinstance(directive, (After, Fuse)):
        producer = _statement(program, directive, function, engine, name=directive.other)
        if producer is None:
            return
        if directive.level is not None:
            if not _check_levels(producer, [directive.level], directive, function, engine):
                return
            _check_fusion(stmt, producer, directive, engine, loc)
    elif isinstance(directive, Pipeline):
        if not _check_levels(stmt, [directive.level], directive, function, engine):
            return
        _check_pipeline(stmt, directive, engine, loc)
    elif isinstance(directive, Unroll):
        _check_levels(stmt, [directive.level], directive, function, engine)


def _check_interchange(stmt, directive, engine, loc) -> None:
    order = list(stmt.loop_order)
    li, lj = order.index(directive.i), order.index(directive.j)
    order[li], order[lj] = order[lj], order[li]
    deps = carried_for_statement(stmt, kinds=ORDER_KINDS)
    for dep in _order_violations(deps, order):
        engine.error(
            "LEG001",
            f"interchanging {directive.i!r} and {directive.j!r} on "
            f"{stmt.name!r} violates the loop-carried dependence {dep}",
            location=loc,
            notes=(
                f"the dependence distance becomes lexicographically "
                f"negative under loop order ({', '.join(order)})",
            ),
        )


def _check_tile(stmt, directive, engine, loc) -> None:
    """Rectangular tiling requires the (i, j) band to be permutable."""
    order = list(stmt.loop_order)
    li, lj = order.index(directive.i), order.index(directive.j)
    if lj != li + 1:
        return  # non-adjacent loops: apply_directive reports SCH005
    swapped = list(order)
    swapped[li], swapped[lj] = swapped[lj], swapped[li]
    deps = carried_for_statement(stmt, kinds=ORDER_KINDS)
    for dep in _order_violations(deps, swapped):
        engine.error(
            "LEG001",
            f"tiling ({directive.i!r}, {directive.j!r}) on {stmt.name!r} "
            f"requires a permutable loop band, but the loop-carried "
            f"dependence {dep} forbids interchanging them",
            location=loc,
        )


def _check_reverse(stmt, directive, engine, loc) -> None:
    deps = carried_for_statement(stmt, kinds=ORDER_KINDS)
    for dep in deps:
        if dep.carried_dim == directive.i:
            engine.error(
                "LEG002",
                f"reversing loop {directive.i!r} on {stmt.name!r} violates "
                f"the loop-carried dependence {dep}",
                location=loc,
                notes=(
                    "a dependence carried by a loop points forward along "
                    "it; reversal would make the sink run first",
                ),
            )


def _check_skew(stmt, directive, engine, loc) -> None:
    """Skew ``jp = j + factor * i`` is legal when ``i`` is outer of ``j``.

    With ``i`` inner, each dependence must keep a lexicographically
    positive distance after the skewed entry ``d_j + factor * d_i``
    replaces ``d_j`` -- checked per dependence, conservatively treating
    unknown entries as illegal (``LEG003``: cannot be proven legal).
    """
    li, lj = stmt.level_of(directive.i), stmt.level_of(directive.j)
    if li < lj:
        return  # skewing by an outer iterator never reorders instances
    factor = directive.factor
    deps = carried_for_statement(stmt, kinds=ORDER_KINDS)
    for dep in deps:
        lc = dep.level
        if lc < lj:
            continue  # carried outside the affected band
        di = dep.distance[directive.i]
        dj = dep.distance[directive.j]
        if di is None:
            if lc == li and factor > 0:
                # Carried at i: distance >= 1, so factor*di >= factor > 0.
                continue
            engine.error(
                "LEG003",
                f"skewing {directive.j!r} by {factor}*{directive.i!r} on "
                f"{stmt.name!r} cannot be proven legal against {dep}",
                location=loc,
            )
            continue
        if dj is None:
            # Carried at j (distance >= 1): safe when the skew term
            # cannot pull the entry negative.
            if lc == lj and factor * di >= 0:
                continue
            engine.error(
                "LEG003",
                f"skewing {directive.j!r} by {factor}*{directive.i!r} on "
                f"{stmt.name!r} cannot be proven legal against {dep}",
                location=loc,
            )
            continue
        skewed = dj + factor * di
        if skewed > 0 or (skewed == 0 and lc > lj):
            continue
        if skewed == 0 and _positive_after(stmt, dep, li, lj):
            continue
        engine.error(
            "LEG003",
            f"skewing {directive.j!r} by {factor}*{directive.i!r} on "
            f"{stmt.name!r} violates the loop-carried dependence {dep}",
            location=loc,
            notes=(
                f"the skewed entry d_{directive.j} + {factor}*d_{directive.i} "
                f"= {skewed} is not lexicographically positive",
            ),
        )


def _positive_after(stmt, dep, li: int, lj: int) -> bool:
    """Whether ``dep`` stays lexicographically positive when its entry at
    position ``lj`` becomes 0: the first known nonzero entry among the
    later positions must be positive (all-zero means the dependence
    degenerates to the same instance, which is fine too)."""
    for position in range(lj + 1, len(stmt.loop_order)):
        entry = dep.distance[stmt.loop_order[position]]
        if entry is None:
            return position == dep.level  # carried entry is >= 1 by definition
        if entry > 0:
            return True
        if entry < 0:
            return False
    return True


def _check_fusion(consumer, producer, directive, engine, loc) -> None:
    """Value flow across a fused level must stay producer-before-consumer.

    At fusion level ``L`` the two statements share one iteration of every
    loop down to ``L``.  For each array the producer writes and the
    consumer reads, an index position driven by a shared loop dim must
    not read ahead of the store (a positive constant offset) -- the
    consumer would read values the producer has not yet computed.
    Index positions driven only by non-shared dims are unconstrained:
    the inner loops still run to completion between the fused iterations.
    """
    shared = producer.level_of(directive.level)
    if consumer.depth() <= shared:
        return  # apply_directive reports the depth mismatch as SCH005
    shared_dims = producer.loop_order[: shared + 1]
    if consumer.loop_order[: shared + 1] != shared_dims:
        return  # positionally fused with different iterator names: skip
    store = producer.dest
    for load in consumer.body.loads():
        if load.array_name != store.array_name:
            continue
        for position, (sidx, lidx) in enumerate(
            zip(store.affine_indices(), load.affine_indices())
        ):
            involved = (set(sidx.dims()) | set(lidx.dims())) & set(shared_dims)
            if not involved:
                continue
            diff = lidx - sidx
            if not diff.is_constant():
                engine.error(
                    "LEG004",
                    f"fusing {consumer.name!r} after {producer.name!r} at "
                    f"loop {directive.level!r} cannot be proven legal: "
                    f"access {store.array_name}[{lidx}] is not a constant "
                    f"translation of the producer's store "
                    f"{store.array_name}[{sidx}]",
                    location=loc,
                )
            elif diff.constant > 0:
                engine.error(
                    "LEG004",
                    f"fusing {consumer.name!r} after {producer.name!r} at "
                    f"loop {directive.level!r} violates the flow dependence "
                    f"on {store.array_name!r}: the consumer reads "
                    f"{store.array_name}[{lidx}] "
                    f"{diff.constant} iteration(s) ahead of the store to "
                    f"{store.array_name}[{sidx}] (dim {position})",
                    location=loc,
                )


def _check_pipeline(stmt, directive, engine, loc) -> None:
    deps = carried_for_statement(stmt, kinds=("RAW",))
    level = stmt.level_of(directive.level)
    for dep in deps:
        if dep.level != level:
            continue
        note = (
            f"achievable II is bounded by the recurrence; the analyzer "
            f"reports minimum carried distance {dep.min_distance}"
        )
        engine.warning(
            "LEG005",
            f"pipelining loop {directive.level!r} of {stmt.name!r} with "
            f"target II {directive.ii}: the loop carries {dep}",
            location=loc,
            notes=(note,),
        )
