"""Exact integer affine expressions over named dimensions.

An :class:`AffineExpr` is a linear combination of named dimensions plus a
constant, with integer coefficients.  It is the atom from which
constraints, sets, maps, and schedules are built.  Expressions are
immutable; all operators return new objects.

Expressions are *hash-consed*: construction interns into the active
:class:`~repro.isl.intern.InternContext`, so structurally equal
expressions built in one context are one object and ``__eq__`` is an
identity test on the hot path.  Identity is an optimization, never a
semantic: structural equality remains the contract (objects from
different contexts, a cleared table, or unpickling compare by value).

The public constructor type-checks, drops zeros and sorts.  Results
derived from clean expressions skip that: ``_from_items`` interns
items that are already normalized (int, nonzero, sorted by name) and
``_from_sums`` only drops zeros and sorts.  Both are internal to
``repro.isl``.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.isl import intern as _intern

Number = int
ExprLike = Union["AffineExpr", int, str]


class AffineExpr:
    """A linear form ``sum(coeff_d * d) + const`` with integer coefficients.

    Dimensions are identified by name.  Zero coefficients are never
    stored, so two equal expressions always compare and hash equal --
    and, within one intern context, *are* the same object.
    """

    __slots__ = ("_coeffs", "_const", "_hash", "_items")

    def __new__(cls, coeffs: Optional[Mapping[str, int]] = None, const: int = 0):
        if coeffs:
            for name, coeff in coeffs.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient for {name!r} must be int, got {type(coeff).__name__}")
        if not isinstance(const, int):
            raise TypeError(f"constant must be int, got {type(const).__name__}")
        return _from_sums(coeffs or {}, const)

    def __reduce__(self):
        # Interned objects must re-intern on unpickle/copy: round-trip
        # through the constructor instead of raw slot restoration.
        return (AffineExpr, (self._coeffs, self._const))

    # -- constructors -------------------------------------------------

    @staticmethod
    def var(name: str) -> "AffineExpr":
        """The expression consisting of a single dimension with coefficient 1."""
        return _from_items(((name, 1),), 0)

    @staticmethod
    def const(value: int) -> "AffineExpr":
        """A constant expression."""
        if not isinstance(value, int):
            raise TypeError(f"constant must be int, got {type(value).__name__}")
        return _from_items((), value)

    @staticmethod
    def coerce(value: ExprLike) -> "AffineExpr":
        """Turn an int, dim name, or expression into an :class:`AffineExpr`."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, int):
            return AffineExpr.const(value)
        if isinstance(value, str):
            return AffineExpr.var(value)
        raise TypeError(f"cannot coerce {value!r} to AffineExpr")

    # -- accessors ----------------------------------------------------

    @property
    def coeffs(self) -> Mapping[str, int]:
        return dict(self._coeffs)

    @property
    def constant(self) -> int:
        return self._const

    def coeff(self, name: str) -> int:
        """The coefficient of dimension ``name`` (0 if absent)."""
        return self._coeffs.get(name, 0)

    def dims(self) -> Tuple[str, ...]:
        """Names of dimensions with non-zero coefficient, sorted."""
        return tuple(sorted(self._coeffs))

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._const == 0

    def is_single_dim(self) -> bool:
        """True when the expression is exactly one dimension with coefficient 1."""
        return self._const == 0 and len(self._coeffs) == 1 and next(iter(self._coeffs.values())) == 1

    def single_dim(self) -> str:
        """The dimension name when :meth:`is_single_dim` holds."""
        if not self.is_single_dim():
            raise ValueError(f"{self} is not a single dimension")
        return next(iter(self._coeffs))

    def content(self) -> int:
        """GCD of all coefficients and the constant (0 for the zero expr)."""
        g = 0
        for coeff in self._coeffs.values():
            g = math.gcd(g, abs(coeff))
        return math.gcd(g, abs(self._const))

    def coeff_gcd(self) -> int:
        """GCD of dimension coefficients only (0 when constant)."""
        g = 0
        for coeff in self._coeffs.values():
            g = math.gcd(g, abs(coeff))
        return g

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, coeff in other._items:
            coeffs[name] = coeffs.get(name, 0) + coeff
        return _from_sums(coeffs, self._const + other._const)

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, coeff in other._items:
            coeffs[name] = coeffs.get(name, 0) - coeff
        return _from_sums(coeffs, self._const - other._const)

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.coerce(other) - self

    def __neg__(self) -> "AffineExpr":
        return _from_items(tuple((n, -c) for n, c in self._items), -self._const)

    def __mul__(self, factor: int) -> "AffineExpr":
        if not isinstance(factor, int):
            return NotImplemented
        if not factor:
            return _from_items((), 0)
        return _from_items(tuple((n, c * factor) for n, c in self._items), self._const * factor)

    __rmul__ = __mul__

    def __floordiv__(self, divisor: int) -> "AffineExpr":
        """Exact division only: every coefficient must be divisible."""
        if not isinstance(divisor, int) or divisor == 0:
            raise ValueError(f"invalid divisor {divisor!r}")
        if self._const % divisor or any(c % divisor for _, c in self._items):
            raise ValueError(f"{self} is not exactly divisible by {divisor}")
        return _from_items(tuple((n, c // divisor) for n, c in self._items), self._const // divisor)

    # -- substitution and evaluation ----------------------------------

    def substitute(self, bindings: Mapping[str, ExprLike]) -> "AffineExpr":
        """Replace dimensions with expressions; unbound dims are kept."""
        coeffs: Dict[str, int] = {}
        const = self._const
        for name, coeff in self._items:
            if name in bindings:
                repl = AffineExpr.coerce(bindings[name])
                const += coeff * repl._const
                for other, factor in repl._items:
                    coeffs[other] = coeffs.get(other, 0) + coeff * factor
            else:
                coeffs[name] = coeffs.get(name, 0) + coeff
        return _from_sums(coeffs, const)

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename dimensions (missing names are kept); the coefficients
        of names renamed onto one are summed, as :meth:`substitute` does."""
        coeffs: Dict[str, int] = {}
        moved = False
        for name, coeff in self._items:
            new = mapping.get(name, name)
            moved = moved or new != name
            coeffs[new] = coeffs.get(new, 0) + coeff
        return _from_sums(coeffs, self._const) if moved else self

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Evaluate at an integer point; every dim must be bound."""
        total = self._const
        for name, coeff in self._coeffs.items():
            if name not in values:
                raise KeyError(f"dimension {name!r} is unbound")
            total += coeff * values[name]
        return total

    # -- comparisons / protocol ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AffineExpr({self})"

    def __str__(self) -> str:
        parts = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self._const or not parts:
            if parts:
                sign = "+" if self._const >= 0 else "-"
                parts.append(f"{sign} {abs(self._const)}")
            else:
                parts.append(str(self._const))
        return " ".join(parts)


def _from_items(items: Tuple[Tuple[str, int], ...], const: int) -> AffineExpr:
    """Intern an expression from items that are already normalized.

    The trusted constructor: ``items`` are ``(name, coeff)`` pairs with
    int, nonzero coefficients, sorted by name (an :attr:`_items` shape)
    and ``const`` is an int.  Nothing is re-checked; callers derive the
    items from another expression's, in its order (see
    ``docs/performance.md``).
    """
    context = _intern._ACTIVE
    table = context.exprs
    key = (items, const)
    self = table.get(key)
    if self is None:
        self = object.__new__(AffineExpr)
        self._coeffs = dict(items)
        self._const = const
        self._hash = hash(key)
        # The name-sorted (name, coeff) pairs, cached for key reuse
        # (constraint pruning, sampling) without re-sorting.
        self._items = items
        if len(table) >= context.cap:
            table.clear()
        table[key] = self
    return self


def _from_sums(coeffs: Mapping[str, int], const: int) -> AffineExpr:
    """Intern int coefficients in any order, zeros allowed (dropped here)."""
    items = [item for item in coeffs.items() if item[1]]
    # Sorting is a no-op below two terms, and most exprs are tiny.
    if len(items) > 1:
        items.sort()
    return _from_items(tuple(items), const)
