"""Multi-dimensional affine maps and 2d+1 schedule maps.

A :class:`MultiAffineMap` sends a point in an input space (named dims) to
a tuple of affine expressions -- used for array accesses and schedules.
A :class:`ScheduleMap` is the standard 2d+1 encoding used by the paper's
polyhedral IR: output positions alternate between *static* (constant)
dimensions that sequence statements lexicographically and *dynamic*
dimensions that carry loop iterators.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.isl.affine import AffineExpr, ExprLike


class MultiAffineMap:
    """An affine function from named input dims to a tuple of expressions."""

    __slots__ = ("in_dims", "exprs")

    def __init__(self, in_dims: Sequence[str], exprs: Sequence[ExprLike]):
        self.in_dims: Tuple[str, ...] = tuple(in_dims)
        coerced = tuple(AffineExpr.coerce(e) for e in exprs)
        for expr in coerced:
            for name in expr.dims():
                if name not in self.in_dims:
                    raise ValueError(f"output {expr} uses unknown input dim {name!r}")
        self.exprs: Tuple[AffineExpr, ...] = coerced

    @property
    def n_out(self) -> int:
        return len(self.exprs)

    def apply(self, point: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(expr.evaluate(point) for expr in self.exprs)

    def substitute(self, bindings: Mapping[str, ExprLike], new_in_dims: Sequence[str]) -> "MultiAffineMap":
        """Rewrite input dims (the access-update step of split/tile/skew)."""
        return MultiAffineMap(new_in_dims, [e.substitute(bindings) for e in self.exprs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiAffineMap):
            return NotImplemented
        return self.in_dims == other.in_dims and self.exprs == other.exprs

    def __hash__(self) -> int:
        return hash((self.in_dims, self.exprs))

    def __repr__(self) -> str:
        outs = ", ".join(str(e) for e in self.exprs)
        return f"{{ [{', '.join(self.in_dims)}] -> [{outs}] }}"


class ScheduleMap:
    """A 2d+1 schedule: ``[c0, d0, c1, d1, ..., c_n]``.

    Even positions are static (integer constants) and order statements
    textually; odd positions are dynamic affine expressions over the
    statement's domain dims (normally a single dim each after our
    transformations).  Lexicographic comparison of schedule vectors gives
    the execution order, per the schedule-tree formulation the paper
    cites.
    """

    __slots__ = ("in_dims", "entries")

    def __init__(self, in_dims: Sequence[str], entries: Sequence[ExprLike]):
        if len(entries) % 2 == 0:
            raise ValueError("2d+1 schedule must have odd length")
        self.in_dims: Tuple[str, ...] = tuple(in_dims)
        coerced: List[AffineExpr] = []
        for position, entry in enumerate(entries):
            expr = AffineExpr.coerce(entry)
            if position % 2 == 0 and not expr.is_constant():
                raise ValueError(f"static dim {position} must be constant, got {expr}")
            for name in expr.dims():
                if name not in self.in_dims:
                    raise ValueError(f"schedule entry {expr} uses unknown dim {name!r}")
            coerced.append(expr)
        self.entries: Tuple[AffineExpr, ...] = tuple(coerced)

    @staticmethod
    def default(dims: Sequence[str], prefix: Sequence[int] = ()) -> "ScheduleMap":
        """The identity schedule ``[p0, d0, 0, d1, 0, ..., 0]``.

        ``prefix`` sets the leading static dims (used by ``after``);
        missing static dims default to 0.
        """
        entries: List[ExprLike] = []
        for index, dim in enumerate(dims):
            entries.append(prefix[index] if index < len(prefix) else 0)
            entries.append(AffineExpr.var(dim))
        entries.append(prefix[len(dims)] if len(prefix) > len(dims) else 0)
        return ScheduleMap(dims, entries)

    @property
    def depth(self) -> int:
        """Number of dynamic dimensions."""
        return len(self.entries) // 2

    def static_dim(self, level: int) -> int:
        """The constant at static position ``level`` (0-based)."""
        return self.entries[2 * level].constant

    def dynamic_dim(self, level: int) -> AffineExpr:
        """The expression at dynamic position ``level`` (0-based)."""
        return self.entries[2 * level + 1]

    def with_static_dim(self, level: int, value: int) -> "ScheduleMap":
        entries = list(self.entries)
        entries[2 * level] = AffineExpr.const(value)
        return ScheduleMap(self.in_dims, entries)

    def with_dynamic_dims(self, exprs: Sequence[ExprLike], in_dims: Optional[Sequence[str]] = None) -> "ScheduleMap":
        """Replace all dynamic dims (padding/truncating static dims to fit)."""
        dims = tuple(in_dims) if in_dims is not None else self.in_dims
        entries: List[ExprLike] = []
        for index, expr in enumerate(exprs):
            static = self.static_dim(index) if index < self.depth else 0
            entries.append(static)
            entries.append(expr)
        entries.append(self.static_dim(self.depth) if len(self.entries) % 2 else 0)
        # Last static: entries always odd-length; final element is last static.
        entries[-1] = self.entries[-1].constant
        return ScheduleMap(dims, entries)

    def substitute(self, bindings: Mapping[str, ExprLike], new_in_dims: Sequence[str]) -> "ScheduleMap":
        return ScheduleMap(new_in_dims, [e.substitute(bindings) for e in self.entries])

    def pad_to_depth(self, depth: int) -> "ScheduleMap":
        """Append ``(dyn 0, static 0)`` pairs until reaching ``depth``.

        Used by the AST builder so all statements share one schedule
        length.  The existing final static dim keeps its position (it is
        what sequences a shallow statement against deeper fused
        siblings); the padding extends the vector with zeros *after* it,
        preserving lexicographic order.
        """
        if depth < self.depth:
            raise ValueError("cannot shrink a schedule")
        entries = list(self.entries)
        for _ in range(depth - self.depth):
            entries.extend([AffineExpr.const(0), AffineExpr.const(0)])
        return ScheduleMap(self.in_dims, entries)

    def vector_at(self, point: Mapping[str, int]) -> Tuple[int, ...]:
        """The full 2d+1 timestamp of a statement instance."""
        return tuple(e.evaluate(point) for e in self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleMap):
            return NotImplemented
        return self.in_dims == other.in_dims and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.in_dims, self.entries))

    def __repr__(self) -> str:
        outs = ", ".join(str(e) for e in self.entries)
        return f"{{ [{', '.join(self.in_dims)}] -> [{outs}] }}"

