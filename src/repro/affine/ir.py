"""An affine-dialect-style IR with HLS pragma attributes.

This is POM's final IR level (paper Section V-C): explicit loop
structures (``affine.for`` / ``affine.if``), memory operations
(``affine.load`` / ``affine.store``), arithmetic from the arith dialect,
and memref-like array declarations -- each op able to carry an
attribute dictionary, which is where HLS pragma information (pipeline,
unroll, array_partition, dependence) lives until code generation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.dsl.dtypes import DType
from repro.dsl.placeholder import Placeholder
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import LoopBound


class Op:
    """Base class: every op carries an attribute dictionary."""

    def __init__(self):
        self.attributes: Dict[str, Any] = {}

    def walk(self) -> Iterator["Op"]:
        yield self
        for region in self.regions():
            for op in region.ops:
                yield from op.walk()

    def regions(self) -> Sequence["Block"]:
        return ()

    def fingerprint(self) -> tuple:
        """A stable structural fingerprint (hashable nested tuple).

        Two ops with equal fingerprints lower to the same code and
        produce the same synthesis estimate.  The fingerprint is cached
        on the instance: ops are treated as frozen once built (the DSE
        caching layers rely on this -- mutate-after-build passes such as
        canonicalization must run on freshly lowered functions).
        """
        cached = getattr(self, "_fingerprint_memo", None)
        if cached is None:
            cached = self._fingerprint()
            self._fingerprint_memo = cached
        return cached

    def _fingerprint(self) -> tuple:
        raise NotImplementedError(f"{type(self).__name__} has no fingerprint")

    def _attrs_fingerprint(self) -> tuple:
        return tuple(
            sorted((key, _freeze(value)) for key, value in self.attributes.items())
        )


def _freeze(value):
    """Convert an attribute value into a hashable form."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def array_fingerprint(array: Placeholder) -> tuple:
    """Identify an array by its interface, not its (mutable) partition state."""
    return (array.name, array.shape, str(array.dtype))


class Block:
    """An ordered list of ops (a single-block region)."""

    def __init__(self, ops: Optional[List[Op]] = None):
        self.ops: List[Op] = ops if ops is not None else []

    def append(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)


# -- value-producing ops (expression tree style) ------------------------------


class ValueOp(Op):
    """An op that produces a scalar value."""


class ConstantOp(ValueOp):
    """arith.constant"""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def _fingerprint(self):
        return ("const", self.value)


class IndexOp(ValueOp):
    """An affine function of the enclosing loop iterators (affine.apply)."""

    def __init__(self, expr: AffineExpr):
        super().__init__()
        self.expr = expr

    def _fingerprint(self):
        return ("index", self.expr)


class AffineLoadOp(ValueOp):
    """affine.load from a memref with affine indices."""

    def __init__(self, array: Placeholder, indices: List[AffineExpr]):
        super().__init__()
        if len(indices) != len(array.shape):
            raise ValueError(
                f"load from {array.name}: rank {len(array.shape)} "
                f"but {len(indices)} indices"
            )
        self.array = array
        self.indices = indices

    def _fingerprint(self):
        return ("load", array_fingerprint(self.array), tuple(self.indices))


class ArithOp(ValueOp):
    """arith.addf / subf / mulf / divf / remf (and integer forms)."""

    KINDS = ("+", "-", "*", "/", "%")

    def __init__(self, kind: str, lhs: ValueOp, rhs: ValueOp):
        super().__init__()
        if kind not in self.KINDS:
            raise ValueError(f"unknown arith op {kind!r}")
        self.kind = kind
        self.lhs = lhs
        self.rhs = rhs

    def _fingerprint(self):
        return ("arith", self.kind, self.lhs.fingerprint(), self.rhs.fingerprint())


class CallOp(ValueOp):
    """math dialect intrinsic (math.exp, arith.minf, ...)."""

    def __init__(self, func: str, operands: List[ValueOp]):
        super().__init__()
        self.func = func
        self.operands = operands

    def _fingerprint(self):
        return ("call", self.func, tuple(o.fingerprint() for o in self.operands))


class CastOp(ValueOp):
    """arith.sitofp / fptosi style conversion."""

    def __init__(self, dtype: DType, operand: ValueOp):
        super().__init__()
        self.dtype = dtype
        self.operand = operand

    def _fingerprint(self):
        return ("cast", str(self.dtype), self.operand.fingerprint())


# -- structured / memory ops ---------------------------------------------------


class AffineStoreOp(Op):
    """affine.store of a computed value into a memref."""

    def __init__(self, array: Placeholder, indices: List[AffineExpr], value: ValueOp):
        super().__init__()
        if len(indices) != len(array.shape):
            raise ValueError(
                f"store to {array.name}: rank {len(array.shape)} "
                f"but {len(indices)} indices"
            )
        self.array = array
        self.indices = indices
        self.value = value

    def statement_name(self) -> Optional[str]:
        return self.attributes.get("statement")

    def _fingerprint(self):
        return (
            "store",
            array_fingerprint(self.array),
            tuple(self.indices),
            self.value.fingerprint(),
            self._attrs_fingerprint(),
        )


class AffineForOp(Op):
    """affine.for with max-of-lower / min-of-upper bounds and step 1.

    HLS attributes: ``pipeline`` (target II), ``unroll`` (factor,
    0 = complete), ``dependence`` hints -- inserted by the hardware
    optimization layer and rendered as pragmas by the backend.
    """

    def __init__(
        self,
        iterator: str,
        lowers: List[LoopBound],
        uppers: List[LoopBound],
        body: Optional[Block] = None,
    ):
        super().__init__()
        if not lowers or not uppers:
            raise ValueError(f"loop {iterator!r} must have bounds")
        self.iterator = iterator
        self.lowers = lowers
        self.uppers = uppers
        self.body = body if body is not None else Block()

    def regions(self):
        return (self.body,)

    def _fingerprint(self):
        return (
            "for",
            self.iterator,
            tuple(self.lowers),
            tuple(self.uppers),
            self._attrs_fingerprint(),
            tuple(op.fingerprint() for op in self.body),
        )

    def constant_trip_count(self) -> Optional[int]:
        lo_vals = [b.evaluate({}) for b in self.lowers if b.expr.is_constant()]
        hi_vals = [b.evaluate({}) for b in self.uppers if b.expr.is_constant()]
        if len(lo_vals) != len(self.lowers) or len(hi_vals) != len(self.uppers):
            return None
        return max(0, min(hi_vals) - max(lo_vals) + 1)

    def max_trip_count(self, outer_extents: Dict[str, int]) -> int:
        """Worst-case trip count given extents of referenced outer iters.

        Used by the latency model for triangular (skewed) loops, where a
        conservative constant envelope bounds the variable trip count.
        """
        constant = self.constant_trip_count()
        if constant is not None:
            return constant
        # The loop's true lower bound is the max of all lower bounds and
        # its upper the min of all uppers; taking max-of-minima (lower)
        # and min-of-maxima (upper) over the outer box stays a sound,
        # tighter envelope than the naive min/max combination.
        lo = max(_extreme(b, outer_extents, smallest=True) for b in self.lowers)
        hi = min(_extreme(b, outer_extents, smallest=False) for b in self.uppers)
        return max(0, hi - lo + 1)


def _extreme(bound: LoopBound, extents: Dict[str, int], smallest: bool) -> int:
    """Min/max of a bound over [0, extent) boxes of its free dims."""
    total_lo = bound.expr.constant
    total_hi = bound.expr.constant
    for name, coeff in bound.expr.coeffs.items():
        extent = extents.get(name, 1)
        values = (0, coeff * max(0, extent - 1))
        total_lo += min(values)
        total_hi += max(values)
    chosen = total_lo if smallest else total_hi
    if bound.is_lower:
        return -((-chosen) // bound.divisor)
    return chosen // bound.divisor


class AffineIfOp(Op):
    """affine.if guarding a region with affine conditions."""

    def __init__(self, conditions: List[Constraint], body: Optional[Block] = None):
        super().__init__()
        if not conditions:
            raise ValueError("affine.if needs at least one condition")
        self.conditions = conditions
        self.body = body if body is not None else Block()

    def regions(self):
        return (self.body,)

    def _fingerprint(self):
        return (
            "if",
            tuple(self.conditions),
            self._attrs_fingerprint(),
            tuple(op.fingerprint() for op in self.body),
        )


class FuncOp(Op):
    """The top-level function: memref arguments plus a body region.

    Array partition schemes (``#pragma HLS array_partition``) are stored
    in ``attributes["partitions"]`` keyed by array name.
    """

    def __init__(self, name: str, arrays: List[Placeholder], body: Optional[Block] = None):
        super().__init__()
        self.name = name
        self.arrays = arrays
        self.body = body if body is not None else Block()

    def regions(self):
        return (self.body,)

    def array(self, name: str) -> Placeholder:
        for array in self.arrays:
            if array.name == name:
                return array
        raise KeyError(f"function {self.name!r} has no array {name!r}")

    def loops(self) -> List[AffineForOp]:
        return [op for op in self.walk() if isinstance(op, AffineForOp)]

    def stores(self) -> List[AffineStoreOp]:
        return [op for op in self.walk() if isinstance(op, AffineStoreOp)]

    def fingerprint(self) -> tuple:
        """Structural fingerprint of the function.

        Unlike nested ops this is *not* memoized on the instance: the DSE
        ladder mutates partition attributes between estimations, and the
        fingerprint must track them.  Partition schemes are restricted to
        arrays the body actually references so that two functions with
        identical code and identical relevant partitions compare equal even
        if they carry stale schemes for unused arrays.
        """
        used = used_arrays(self.body)
        attrs = dict(self.attributes)
        partitions = attrs.pop("partitions", None)
        items = []
        if partitions:
            items = sorted(
                (name, _freeze(scheme))
                for name, scheme in partitions.items()
                if name in used
            )
        other = tuple(sorted((k, _freeze(v)) for k, v in attrs.items()))
        return (
            "func",
            self.name,
            tuple(array_fingerprint(a) for a in self.arrays if a.name in used),
            tuple(items),
            other,
            tuple(op.fingerprint() for op in self.body),
        )


def used_arrays(block: Block) -> set:
    """Names of arrays referenced by loads/stores anywhere under ``block``."""
    used: set = set()

    def visit_value(value: ValueOp) -> None:
        if isinstance(value, AffineLoadOp):
            used.add(value.array.name)
        elif isinstance(value, ArithOp):
            visit_value(value.lhs)
            visit_value(value.rhs)
        elif isinstance(value, CallOp):
            for operand in value.operands:
                visit_value(operand)
        elif isinstance(value, CastOp):
            visit_value(value.operand)

    def visit(op: Op) -> None:
        if isinstance(op, AffineStoreOp):
            used.add(op.array.name)
            visit_value(op.value)
        for region in op.regions():
            for inner in region:
                visit(inner)

    for op in block:
        visit(op)
    return used
