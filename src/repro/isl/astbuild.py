"""CLooG-style AST generation from (domain, schedule) pairs.

This module plays the role of isl's ``ast_build`` (Section V-B of the
paper): given a union of statements, each carrying an iteration domain
(:class:`~repro.isl.sets.BasicSet`) and a 2d+1 schedule
(:class:`~repro.isl.maps.ScheduleMap`), it produces a *polyhedral AST*
with exactly the four node types the paper names -- ``for``-node,
``if``-node, ``block``-node, and ``user``-node.  Computation statements
and hardware-optimization info are attached to nodes as annotations, to
be retrieved during lowering to the affine dialect.

Assumptions (established by the transformation layer):

* every dynamic schedule entry is either a single domain dimension or
  the padding constant 0;
* each statement's schedule mentions every domain dimension exactly once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import trace as _trace
from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr, _from_sums
from repro.isl.constraint import GE, Constraint
from repro.isl.maps import ScheduleMap
from repro.isl.sets import BasicSet, LoopBound, row_constraint
from repro.util import deadline as _deadline


class AstNode:
    """Base class for polyhedral AST nodes."""

    __slots__ = ("annotations",)

    def __init__(self):
        self.annotations: Dict[str, Any] = {}

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Sequence["AstNode"]:
        return ()


class ForNode(AstNode):
    """A loop over ``iterator`` from max(lowers) to min(uppers), step 1."""

    __slots__ = ("iterator", "lowers", "uppers", "body")

    def __init__(self, iterator: str, lowers: List[LoopBound], uppers: List[LoopBound], body: AstNode):
        super().__init__()
        if not lowers or not uppers:
            raise ValueError(f"loop {iterator!r} must have both bounds")
        self.iterator = iterator
        self.lowers = lowers
        self.uppers = uppers
        self.body = body

    def children(self):
        return (self.body,)

    def constant_trip_count(self) -> Optional[int]:
        """Trip count when bounds are constants, else None."""
        lo_vals = [b.evaluate({}) for b in self.lowers if b.expr.is_constant()]
        hi_vals = [b.evaluate({}) for b in self.uppers if b.expr.is_constant()]
        if len(lo_vals) != len(self.lowers) or len(hi_vals) != len(self.uppers):
            return None
        return max(0, min(hi_vals) - max(lo_vals) + 1)

    def __repr__(self):
        return f"for {self.iterator} in [{self.lowers}, {self.uppers}]"


class IfNode(AstNode):
    """A guard: ``conditions`` (conjunction) wrapping ``body``."""

    __slots__ = ("conditions", "body")

    def __init__(self, conditions: List[Constraint], body: AstNode):
        super().__init__()
        if not conditions:
            raise ValueError("if-node needs at least one condition")
        self.conditions = conditions
        self.body = body

    def children(self):
        return (self.body,)

    def __repr__(self):
        return f"if {' and '.join(str(c) for c in self.conditions)}"


class BlockNode(AstNode):
    """A sequence of child nodes executed in order."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[AstNode]):
        super().__init__()
        self.stmts = list(stmts)

    def children(self):
        return tuple(self.stmts)

    def __repr__(self):
        return f"block[{len(self.stmts)}]"


class UserNode(AstNode):
    """A statement instance; ``binding`` renames each domain dim to the
    loop iterator it is bound to."""

    __slots__ = ("name", "payload", "binding")

    def __init__(self, name: str, payload: Any, binding: Mapping[str, str]):
        super().__init__()
        self.name = name
        self.payload = payload
        self.binding = dict(binding)

    def __repr__(self):
        return f"user<{self.name}>"


class _StmtState:
    """Per-statement bookkeeping while the AST is being built."""

    __slots__ = ("name", "domain", "schedule", "payload", "binding")

    def __init__(self, name: str, domain: BasicSet, schedule: ScheduleMap, payload: Any):
        self.name = name
        self.domain = domain
        self.schedule = schedule
        self.payload = payload
        self.binding: Dict[str, str] = {}  # domain dim -> loop iterator

    def renames(self) -> bool:
        """Whether some dim is bound to an iterator of another name."""
        return any(dim != it for dim, it in self.binding.items())


class _Nest:
    """The enclosing loops -- the build's context -- as plain data.

    ``levels`` holds ``(iterator, lowers, uppers)`` outermost first;
    :meth:`context` is the same thing as a set, built only when
    Fourier-Motzkin is asked.  ``box`` is one constant interval per
    iterator enclosing the *rational* relaxation of that set, which is
    what Fourier-Motzkin reasons over: a constant bound is in the set
    integer-tightened (``Constraint._normalize``) and is taken exactly,
    any other bound ``d*it >= e(outer)`` only as written, so its end
    rounds *outward* (``floor(min e / d)``).  The inward ``ceil`` holds
    at integer points only; Fourier-Motzkin need not prove what follows
    from it, and a guard it keeps must stay.
    """

    __slots__ = ("levels", "box", "_known", "_outer")

    def __init__(
        self,
        levels: Tuple = (),
        box: Optional[Dict[str, Tuple[int, int]]] = None,
        outer: Optional["_Nest"] = None,
    ):
        self.levels = levels
        self.box = box or {}
        self._known: Optional[List[Constraint]] = None
        self._outer = outer  # the nest this one extends by its last level

    def extended(self, iterator: str, lowers: List[LoopBound], uppers: List[LoopBound]) -> "_Nest":
        ends = max(map(self._box_end, lowers)), min(map(self._box_end, uppers))
        return _Nest(
            self.levels + ((iterator, lowers, uppers),), {**self.box, iterator: ends}, self
        )

    def context(self) -> BasicSet:
        """The loops as a set over the iterators, level by level."""
        context = BasicSet.universe(())
        for iterator, lowers, uppers in self.levels:
            context = BasicSet(
                context.dims + (iterator,),
                list(context.constraints)
                + [_bound_constraint(iterator, b) for b in lowers + uppers],
            )
        return context

    def known(self) -> List[Constraint]:
        """The non-constant bounds as written: all the box is loose on.
        Built on first use, on top of the outer nest's; a nest's levels
        never change."""
        if self._known is None:
            if self._outer is None:
                levels, known = self.levels, []
            else:
                levels, known = self.levels[-1:], self._outer.known()
            self._known = known + [
                _bound_constraint(iterator, bound)
                for iterator, lowers, uppers in levels
                for bound in lowers + uppers if not bound.expr.is_constant()
            ]
        return self._known

    def _box_end(self, bound: LoopBound) -> int:
        value = self.extreme(bound.expr, low=bound.is_lower)
        if bound.is_lower == bound.expr.is_constant():
            return -(-value // bound.divisor)
        return value // bound.divisor

    def extreme(self, expr: AffineExpr, low: bool) -> int:
        """The minimum (``low``) or maximum of ``expr`` over the box."""
        total = expr._const
        for name, coeff in expr._coeffs.items():
            total += coeff * self.box[name][(coeff > 0) != low]
        return total

    def row_low(self, dims: Sequence[str], row: Sequence[int]) -> int:
        """:meth:`extreme` ``(low=True)`` of a set row over ``dims``."""
        total = row[len(dims)]
        box = self.box
        for name, coeff in zip(dims, row):
            if coeff:
                total += coeff * box[name][coeff < 0]
        return total

    def witness(self, toward: Mapping[str, int]) -> Optional[Dict[str, int]]:
        """One integer iteration of the nest, or None.

        Walks outermost-in, evaluating each level's real bounds at the
        values already chosen and taking the end that lowers a form with
        coefficients ``toward``; gives up where a level is empty there.
        """
        point: Dict[str, int] = {}
        for iterator, lowers, uppers in self.levels:
            lo = max(b.evaluate(point) for b in lowers)
            hi = min(b.evaluate(point) for b in uppers)
            if lo > hi:
                return None
            point[iterator] = hi if toward.get(iterator, 0) < 0 else lo
        return point

    def decide(self, constraint: Constraint, toward: Mapping[str, int]) -> Optional[bool]:
        """Whether every iteration satisfies ``constraint``; None = ask FM.

        Both answers are the one Fourier-Motzkin is forced to give.
        True: the constraint holds on the whole box or is one of the
        :meth:`known` bounds, so its negation is rationally infeasible
        with the context, and the elimination is complete for rational
        infeasibility.  False: an integer iteration violates it; every
        elimination step, gcd tightening included, is valid for integer
        points, so it can never call a set holding one empty.
        """
        if constraint.kind != GE:
            return None
        expr = constraint.expr
        if self.extreme(expr, low=True) >= 0:
            return True
        point = self.witness(toward)
        if point is not None and expr.evaluate(point) < 0:
            return False
        return True if constraint in self.known() else None


def _implies(nest: _Nest, constraint: Constraint, toward, eliminate) -> bool:
    """One implication test: the nest's answer when it has one, else
    ``eliminate()``'s -- always that under ``REPRO_ISL_REFERENCE=1``."""
    decided = None if _intern._REFERENCE else nest.decide(constraint, toward)
    if decided is None:
        _trace.count("isl.ast.eliminated")
        return eliminate()
    _trace.count("isl.ast.decided")
    return decided


class AstBuilder:
    """Builds a polyhedral AST from statements with domains and schedules."""

    def __init__(self):
        self._fresh = 0

    def build(
        self,
        statements: Sequence[Tuple[str, BasicSet, ScheduleMap, Any]],
    ) -> AstNode:
        """Generate the AST for ``(name, domain, schedule, payload)`` tuples."""
        if not statements:
            return BlockNode([])
        args = None
        if _trace.enabled():
            args = {"statements": len(statements)}
        with _trace.span("isl.ast_build", "isl", args):
            depth = max(s[2].depth for s in statements)
            states = [
                _StmtState(name, domain, schedule.pad_to_depth(depth), payload)
                for name, domain, schedule, payload in statements
            ]
            return self._build_level(states, 0, depth, _Nest())

    # -- internals -------------------------------------------------------

    def _build_level(
        self,
        states: List[_StmtState],
        level: int,
        depth: int,
        nest: _Nest,
    ) -> AstNode:
        if level == depth:
            return self._build_leaves(states, nest)

        groups: Dict[int, List[_StmtState]] = {}
        for state in states:
            groups.setdefault(state.schedule.static_dim(level), []).append(state)

        children = []
        for key in sorted(groups):
            children.append(
                self._build_loop(groups[key], level, depth, nest)
            )
        if len(children) == 1:
            return children[0]
        return BlockNode(children)

    def _build_loop(
        self,
        states: List[_StmtState],
        level: int,
        depth: int,
        nest: _Nest,
    ) -> AstNode:
        # Watchdog checkpoint: AST building recurses per loop level and
        # projects bounds through the integer-set library; poll the
        # cooperative deadline once per constructed loop.  The poll point
        # doubles as the per-node tracing hook.
        _deadline.checkpoint()
        _trace.count("isl.ast_nodes")
        dyn_exprs = [s.schedule.dynamic_dim(level) for s in states]
        if all(e.is_zero() for e in dyn_exprs):
            return self._build_level(states, level + 1, depth, nest)
        if not all(e.is_single_dim() for e in dyn_exprs):
            raise ValueError(
                f"dynamic schedule dims at level {level} must be single dims: {dyn_exprs}"
            )

        dim_names = [e.single_dim() for e in dyn_exprs]
        outer_iters = [outer for outer, _, _ in nest.levels]
        iterator = self._pick_iterator(dim_names, outer_iters, states)
        for state, dim in zip(states, dim_names):
            state.binding[dim] = iterator

        lowers, uppers = self._loop_bounds(states, dim_names, iterator, outer_iters)
        lowers, uppers = _prune_redundant(nest, iterator, lowers, uppers)
        body = self._build_level(
            states, level + 1, depth, nest.extended(iterator, lowers, uppers)
        )
        return ForNode(iterator, lowers, uppers, body)

    def _build_leaves(
        self,
        states: List[_StmtState],
        nest: _Nest,
    ) -> AstNode:
        leaves = []
        final_keys = [(s.schedule.entries[-1].constant, i) for i, s in enumerate(states)]
        for _, index in sorted(final_keys):
            state = states[index]
            unbound = [d for d in state.domain.dims if d not in state.binding]
            if unbound:
                raise ValueError(
                    f"statement {state.name!r}: domain dims {unbound} never scheduled"
                )
            user: AstNode = UserNode(state.name, state.payload, state.binding)
            guards = self._guards(state, nest)
            if guards:
                user = IfNode(guards, user)
            leaves.append(user)
        if len(leaves) == 1:
            return leaves[0]
        return BlockNode(leaves)

    def _guards(self, state: _StmtState, nest: _Nest) -> List[Constraint]:
        """Domain constraints not already implied by the loop bounds.

        An inequality row that holds on the whole box of the nest passes
        :meth:`_Nest.decide`'s first test; it is read off the row, and
        only the other rows become constraints."""
        domain = state.domain.rename_dims(state.binding) if state.renames() else state.domain
        dims = domain.dims
        order = domain.name_order()
        guards = []
        for row in domain.rows:
            if not _intern._REFERENCE and _row_boxed(nest, dims, row):
                _trace.count("isl.ast.decided")
                continue
            constraint = row_constraint(dims, order, row)
            if not _implies(
                nest, constraint, constraint.expr._coeffs,
                lambda: self._implied(nest.context(), constraint),
            ):
                guards.append(constraint)
        return guards

    @staticmethod
    def _implied(context: BasicSet, constraint: Constraint) -> bool:
        """Whether ``context`` entails ``constraint``, by Fourier-Motzkin."""
        dims = set(context.dims) | set(constraint.dims())
        base = BasicSet(tuple(sorted(dims)), []).with_constraints(
            c for c in context.constraints
        )
        if constraint.kind == GE:
            negations = [Constraint(-constraint.expr - 1, GE)]
        else:
            negations = [
                Constraint(constraint.expr - 1, GE),
                Constraint(-constraint.expr - 1, GE),
            ]
        return all(base.with_constraints([neg]).is_empty() for neg in negations)

    def _pick_iterator(
        self,
        dim_names: List[str],
        outer_iters: List[str],
        states: List[_StmtState],
    ) -> str:
        """Choose a loop iterator name safe for every fused statement.

        A candidate collides when it is already an outer iterator, or
        when some fused statement has a *different* domain dim of the
        same name (binding would alias two of its dimensions).
        """

        def usable(candidate: str) -> bool:
            if candidate in outer_iters:
                return False
            for state, own_dim in zip(states, dim_names):
                if candidate != own_dim and candidate in state.domain.dims:
                    return False
                if candidate in state.binding.values():
                    return False
            return True

        for candidate in dim_names:
            if usable(candidate):
                return candidate
        while True:
            self._fresh += 1
            fresh = f"t{self._fresh}"
            if usable(fresh):
                return fresh

    def _loop_bounds(
        self,
        states: List[_StmtState],
        dim_names: List[str],
        iterator: str,
        outer_iters: List[str],
    ) -> Tuple[List[LoopBound], List[LoopBound]]:
        per_stmt: List[Tuple[List[LoopBound], List[LoopBound]]] = []
        for state, dim in zip(states, dim_names):
            domain = state.domain
            if state.renames():
                domain = domain.rename_dims(state.binding)
            lowers, uppers = domain.dim_bounds(iterator, context=outer_iters)
            if not lowers or not uppers:
                raise ValueError(
                    f"statement {state.name!r}: loop dim {dim!r} is unbounded"
                )
            per_stmt.append((lowers, uppers))

        if len(per_stmt) == 1:
            return per_stmt[0]

        # Fused statements: prefer bounds common to all; otherwise fall back
        # to constant envelopes (guards at the leaves keep semantics exact).
        common_low = _common(per_stmt, lower=True)
        common_up = _common(per_stmt, lower=False)
        lowers = common_low or [_const_envelope(per_stmt, lower=True)]
        uppers = common_up or [_const_envelope(per_stmt, lower=False)]
        return lowers, uppers


def _bound_constraint(iterator: str, bound: LoopBound) -> Constraint:
    # iterator >= ceil(e/d)  <=>  d*iterator - e >= 0;
    # iterator <= floor(e/d)  <=>  e - d*iterator >= 0.
    sign = 1 if bound.is_lower else -1
    coeffs = {name: -sign * coeff for name, coeff in bound.expr._items}
    coeffs[iterator] = coeffs.get(iterator, 0) + sign * bound.divisor
    return Constraint(_from_sums(coeffs, -sign * bound.expr._const), GE)


def _prune_redundant(
    nest: _Nest,
    iterator: str,
    lowers: List[LoopBound],
    uppers: List[LoopBound],
) -> Tuple[List[LoopBound], List[LoopBound]]:
    """Drop bounds implied by the remaining bounds under the loop context.

    Keeps generated loops canonical (a single lower/upper bound whenever
    possible), which both cleans up the emitted code and lets the HLS
    estimator read off constant trip counts.
    """
    all_bounds = lowers + uppers
    if len(lowers) <= 1 and len(uppers) <= 1:
        return lowers, uppers
    kept = list(all_bounds)
    for candidate in all_bounds:
        if len([b for b in kept if b.is_lower == candidate.is_lower]) <= 1:
            continue
        others = [b for b in kept if b is not candidate]
        sides = [b for b in others if b.is_lower], [b for b in others if not b.is_lower]
        if not _intern._REFERENCE and _boxed(nest, candidate, sides):
            # decide's box test, run before the constraint, the slack
            # and the trial nest it would have been given are built.
            _trace.count("isl.ast.decided")
            kept = others
            continue
        negated = _bound_constraint(iterator, candidate)
        # A witness lowers the candidate's slack over the other same-side
        # bound, ``rival * d - candidate * d'``: that one stands in for
        # the iterator in the outer loops.
        rival = sides[not candidate.is_lower][0]
        slack = {name: coeff * candidate.divisor for name, coeff in rival.expr._items}
        for name, coeff in candidate.expr._items:
            slack[name] = slack.get(name, 0) - coeff * rival.divisor
        sign = 1 if candidate.is_lower else -1
        toward = {name: sign * coeff for name, coeff in slack.items() if coeff}
        toward[iterator] = sign

        trial = nest.extended(iterator, *sides)

        def eliminate() -> bool:
            # candidate is implied iff context ∧ others ∧ ¬candidate is empty
            violated = Constraint(-negated.expr - 1, GE)
            return trial.context().with_constraints([violated]).is_empty()

        if _implies(trial, negated, toward, eliminate):
            kept = others
    return (
        [b for b in kept if b.is_lower],
        [b for b in kept if not b.is_lower],
    )


def _row_boxed(nest: _Nest, dims: Sequence[str], row: Sequence[int]) -> bool:
    """Whether the inequality ``row`` of a set over ``dims`` holds on the
    whole box of ``nest``: :meth:`_Nest.decide`'s first test, before the
    row's constraint is built."""
    return not row[-1] and nest.row_low(dims, row) >= 0


def _boxed(
    nest: _Nest, candidate: LoopBound, sides: Tuple[List[LoopBound], List[LoopBound]]
) -> bool:
    """Whether ``candidate`` holds on the whole box of ``nest`` extended
    by the loop ``sides`` bound: :meth:`_Nest.decide`'s first test on
    ``_bound_constraint(iterator, candidate)`` in ``nest.extended(...)``.
    Dividing that constraint by its coefficient gcd leaves the sign of
    its integer minimum over the box alone, so the raw form is tested."""
    if candidate.is_lower:
        low = max(map(nest._box_end, sides[0]))
        return candidate.divisor * low - nest.extreme(candidate.expr, low=False) >= 0
    high = min(map(nest._box_end, sides[1]))
    return nest.extreme(candidate.expr, low=True) - candidate.divisor * high >= 0


def _common(per_stmt, lower: bool) -> List[LoopBound]:
    index = 0 if lower else 1
    sets = [set(bounds[index]) for bounds in per_stmt]
    shared = set.intersection(*sets)
    if not shared:
        return []
    ordered = [b for b in per_stmt[0][index] if b in shared]
    return ordered


def _const_envelope(per_stmt, lower: bool) -> LoopBound:
    index = 0 if lower else 1
    values = []
    for bounds in per_stmt:
        const_vals = [b.evaluate({}) for b in bounds[index] if b.expr.is_constant()]
        if not const_vals:
            raise ValueError("fused statements have incompatible non-constant bounds")
        values.append(max(const_vals) if lower else min(const_vals))
    envelope = min(values) if lower else max(values)
    return LoopBound(AffineExpr.const(envelope), 1, is_lower=lower)
