"""Canonicalization passes for the affine dialect.

The stock passes keep generated IR canonical -- trip-1 loops are
promoted, constant guards folded, empty control flow deleted, dead
annotations dropped -- so the backend and estimator see one normal
form per program.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.affine.ir import (
    AffineForOp,
    AffineIfOp,
    AffineLoadOp,
    AffineStoreOp,
    ArithOp,
    Block,
    CallOp,
    CastOp,
    FuncOp,
    IndexOp,
    Op,
    ValueOp,
)
from repro.affine.passes.base import Pass, PassManager


def _rewrite_block(block: Block, rewrite: Callable[[Op], Optional[List[Op]]]) -> bool:
    """Apply ``rewrite`` bottom-up; None keeps the op, a list replaces it."""
    changed = False
    new_ops: List[Op] = []
    for op in block.ops:
        for region in op.regions():
            changed |= _rewrite_block(region, rewrite)
        replacement = rewrite(op)
        if replacement is None:
            new_ops.append(op)
        else:
            changed = True
            new_ops.extend(replacement)
    block.ops[:] = new_ops
    return changed


def _substitute_value(value: ValueOp, name: str, constant: int) -> ValueOp:
    if isinstance(value, IndexOp):
        return IndexOp(value.expr.substitute({name: constant}))
    if isinstance(value, AffineLoadOp):
        return AffineLoadOp(
            value.array, [i.substitute({name: constant}) for i in value.indices]
        )
    if isinstance(value, ArithOp):
        return ArithOp(
            value.kind,
            _substitute_value(value.lhs, name, constant),
            _substitute_value(value.rhs, name, constant),
        )
    if isinstance(value, CallOp):
        return CallOp(value.func, [_substitute_value(a, name, constant) for a in value.operands])
    if isinstance(value, CastOp):
        return CastOp(value.dtype, _substitute_value(value.operand, name, constant))
    return value


def _substitute_op(op: Op, name: str, constant: int) -> None:
    """Bind iterator ``name`` to a constant everywhere below ``op``."""
    if isinstance(op, AffineForOp):
        from repro.isl.sets import LoopBound

        op.lowers = [
            LoopBound(b.expr.substitute({name: constant}), b.divisor, b.is_lower)
            for b in op.lowers
        ]
        op.uppers = [
            LoopBound(b.expr.substitute({name: constant}), b.divisor, b.is_lower)
            for b in op.uppers
        ]
        for inner in op.body:
            _substitute_op(inner, name, constant)
    elif isinstance(op, AffineIfOp):
        op.conditions = [c.substitute({name: constant}) for c in op.conditions]
        for inner in op.body:
            _substitute_op(inner, name, constant)
    elif isinstance(op, AffineStoreOp):
        op.indices = [i.substitute({name: constant}) for i in op.indices]
        op.value = _substitute_value(op.value, name, constant)


class PromoteTripOneLoops(Pass):
    """Replace a loop with constant trip count 1 by its body.

    The iterator is bound to its single value throughout the body --
    the canonical form expected after unit-factor tiling.
    """

    name = "promote-trip-one-loops"

    def run(self, func: FuncOp) -> bool:
        def rewrite(op: Op):
            if not isinstance(op, AffineForOp):
                return None
            if op.constant_trip_count() != 1:
                return None
            value = max(b.evaluate({}) for b in op.lowers if b.expr.is_constant())
            body = list(op.body.ops)
            for inner in body:
                _substitute_op(inner, op.iterator, value)
            return body

        return _rewrite_block(func.body, rewrite)


class FoldConstantGuards(Pass):
    """Resolve affine.if ops whose conditions are constants."""

    name = "fold-constant-guards"

    def run(self, func: FuncOp) -> bool:
        def rewrite(op: Op):
            if not isinstance(op, AffineIfOp):
                return None
            remaining = [c for c in op.conditions if not c.is_tautology()]
            if any(c.is_contradiction() for c in remaining):
                return []  # dead region
            if not remaining:
                return list(op.body.ops)
            if len(remaining) != len(op.conditions):
                op.conditions = remaining
                return [op]  # mutated in place; report the change
            return None

        return _rewrite_block(func.body, rewrite)


class DropEmptyLoops(Pass):
    """Delete loops and guards whose bodies became empty."""

    name = "drop-empty-loops"

    def run(self, func: FuncOp) -> bool:
        def rewrite(op: Op):
            if isinstance(op, (AffineForOp, AffineIfOp)) and len(op.body) == 0:
                return []
            if isinstance(op, AffineForOp) and op.constant_trip_count() == 0:
                return []
            return None

        return _rewrite_block(func.body, rewrite)


class DropDeadAnnotations(Pass):
    """Remove unroll annotations from loops with a single iteration."""

    name = "drop-dead-annotations"

    def run(self, func: FuncOp) -> bool:
        changed = False
        for op in func.walk():
            if isinstance(op, AffineForOp) and op.constant_trip_count() == 1:
                for key in ("unroll", "pipeline"):
                    if key in op.attributes:
                        del op.attributes[key]
                        changed = True
        return changed


def default_pipeline() -> PassManager:
    """The canonicalization pipeline run before code generation."""
    return PassManager(
        [
            FoldConstantGuards(),
            PromoteTripOneLoops(),
            DropEmptyLoops(),
            DropDeadAnnotations(),
        ]
    )


def canonicalize(func: FuncOp) -> FuncOp:
    """Run the default pipeline to a fixed point and verify; returns func."""
    from repro.affine.passes.verify import VerifyStructure

    default_pipeline().run(func, to_fixed_point=True)
    VerifyStructure().run(func)
    return func
