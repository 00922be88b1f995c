"""Affine constraints: equalities and inequalities over named dimensions.

A constraint is either ``expr == 0`` or ``expr >= 0``.  Constraints are
normalized (divided by the GCD of their coefficients, with integer
tightening of the constant for inequalities) so that syntactically
different but equivalent constraints compare equal.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.diagnostics import DiagnosticError
from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr, ExprLike, _from_items

EQ = "=="
GE = ">="

#: Most (lower, upper) bound pairs one Fourier-Motzkin step may combine.
#: Every pair becomes a row before pruning, so the working set is
#: quadratic in the system size; registry workloads pair a few dozen
#: rows per step, while a runaway system (random skew/shift chains under
#: dependence sampling) reaches 10**9 pairs -- tens of GiB -- in one step.
MAX_FM_PAIRS = 1 << 20


class EliminationBlowup(DiagnosticError):
    """A Fourier-Motzkin step would exceed :data:`MAX_FM_PAIRS` (``ISL001``)."""


def check_fm_pairs(lowers: int, uppers: int, name: str) -> None:
    """Refuse an elimination step whose pairing is out of bounds."""
    if lowers * uppers > MAX_FM_PAIRS:
        raise EliminationBlowup(
            f"eliminating {name!r} would combine {lowers} x {uppers} bound "
            f"pairs (limit {MAX_FM_PAIRS})",
            code="ISL001",
        )


class Constraint:
    """A normalized affine constraint ``expr == 0`` or ``expr >= 0``.

    Constraints are hash-consed like :class:`AffineExpr`: construction
    interns the (normalized expr, kind) pair into the active
    :class:`~repro.isl.intern.InternContext`, making ``__eq__`` an
    identity test on the hot path and memo-table keys effectively O(1).
    Structural equality remains the semantic contract.
    """

    __slots__ = ("expr", "kind", "_hash")

    def __new__(cls, expr: AffineExpr, kind: str):
        if kind not in (EQ, GE):
            raise ValueError(f"kind must be '==' or '>=', got {kind!r}")
        expr = _normalize(expr, kind)
        context = _intern._ACTIVE
        table = context.constraints
        key = (kind, expr)
        self = table.get(key)
        if self is None:
            self = object.__new__(cls)
            self.expr = expr
            self.kind = kind
            self._hash = hash(key)
            if len(table) >= context.cap:
                table.clear()
            table[key] = self
        return self

    def __reduce__(self):
        # Re-intern on unpickle/copy (normalization is idempotent).
        return (Constraint, (self.expr, self.kind))

    # -- constructors -------------------------------------------------

    @staticmethod
    def eq(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """The constraint ``lhs == rhs``."""
        return Constraint(AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs), EQ)

    @staticmethod
    def ge(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """The constraint ``lhs >= rhs``."""
        return Constraint(AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs), GE)

    @staticmethod
    def le(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """The constraint ``lhs <= rhs``."""
        return Constraint(AffineExpr.coerce(rhs) - AffineExpr.coerce(lhs), GE)

    # -- queries -------------------------------------------------------

    def is_equality(self) -> bool:
        return self.kind == EQ

    def is_tautology(self) -> bool:
        """True when the constraint holds for every point."""
        if not self.expr.is_constant():
            return False
        if self.kind == EQ:
            return self.expr.constant == 0
        return self.expr.constant >= 0

    def is_contradiction(self) -> bool:
        """True when no point satisfies the constraint."""
        if self.kind == EQ:
            # c == 0 with c a nonzero constant, or gcd test failure.
            if self.expr.is_constant():
                return self.expr.constant != 0
            g = self.expr.coeff_gcd()
            return g != 0 and self.expr.constant % g != 0
        return self.expr.is_constant() and self.expr.constant < 0

    def dims(self):
        return self.expr.dims()

    def satisfied_by(self, values: Mapping[str, int]) -> bool:
        value = self.expr.evaluate(values)
        return value == 0 if self.kind == EQ else value >= 0

    # -- transforms ----------------------------------------------------

    def substitute(self, bindings) -> "Constraint":
        return Constraint(self.expr.substitute(bindings), self.kind)

    # -- protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.kind == other.kind and self.expr == other.expr

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({self})"

    def __str__(self) -> str:
        return f"{self.expr} {self.kind} 0"


def _intern_normalized(expr: AffineExpr, kind: str) -> Constraint:
    """Fast intern path for an expression already in normalized form.

    The caller guarantees ``_normalize(expr, kind) is expr`` -- true for
    every row of a ``BasicSet``, which ``BasicSet.constraints`` reads
    back as constraints.
    """
    context = _intern._ACTIVE
    table = context.constraints
    key = (kind, expr)
    self = table.get(key)
    if self is None:
        self = object.__new__(Constraint)
        self.expr = expr
        self.kind = kind
        self._hash = hash(key)
        if len(table) >= context.cap:
            table.clear()
        table[key] = self
    return self


def _normalize(expr: AffineExpr, kind: str) -> AffineExpr:
    """Divide by the coefficient GCD; tighten constants on inequalities.

    For an inequality ``g*e + c >= 0`` with coefficient gcd ``g`` the
    integer points also satisfy ``e + floor(c/g) >= 0``, which is the
    standard integer tightening step that keeps Fourier-Motzkin exact on
    the sets this library manipulates.
    """
    g = expr.coeff_gcd()
    if g <= 1:
        return expr
    const = expr.constant
    if kind == GE:
        # Integer floor division: exact for arbitrarily large constants,
        # where float-mediated math.floor(const / g) could round wrong.
        new_const = const // g
    else:
        if const % g != 0:
            # Keep as-is: the GCD test in is_contradiction will flag it.
            return expr
        new_const = const // g
    return _from_items(tuple((n, c // g) for n, c in expr._items), new_const)
