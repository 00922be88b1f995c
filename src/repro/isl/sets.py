"""Basic integer sets: conjunctions of affine constraints over named dims.

A :class:`BasicSet` plays the role of an isl ``basic_set``: it is an
ordered tuple of dimension names plus a system of constraints.  It
supports the operations the polyhedral IR needs -- intersection,
dimension substitution (the mechanism behind split/tile/skew),
Fourier-Motzkin projection, rational emptiness testing with integer
tightening, loop bound extraction for code generation, and exhaustive
point enumeration for small sets (used heavily by the test suite as
ground truth).

As in isl, the system is held as integer rows over the ordered dims: a
row is a plain tuple ``(c_0, ..., c_{n-1}, const, eq)`` standing for
``sum(c_k * dims[k]) + const == 0`` when ``eq`` is 1 and ``>= 0`` when
it is 0, normalized as :class:`~repro.isl.constraint.Constraint`
normalizes (coefficient gcd divided out, inequality constants
floored).  :class:`~repro.isl.affine.AffineExpr` and
:class:`Constraint` are the boundary types: the constructor and
``with_constraints`` take constraints, :attr:`BasicSet.constraints`
builds them from the rows once per set, and :meth:`BasicSet.dim_bounds`
builds the expressions of the loop bounds it returns.  Renaming is a
new dims tuple, reordering and substitution are column operations, and
Fourier-Motzkin runs on the rows.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import trace as _trace
from repro.isl import intern as _intern
from repro.isl import matrix as _matrix
from repro.isl import memo as _memo
from repro.isl.affine import AffineExpr, ExprLike, _from_items
from repro.isl.constraint import EQ, GE, Constraint, _intern_normalized, check_fm_pairs
from repro.util import deadline as _deadline

#: One constraint over a set's dims: coefficients, constant, 1 for ``==``.
Row = Tuple[int, ...]

_gcd = math.gcd


class LoopBound:
    """One loop bound for code generation: ``floor/ceil(expr / divisor)``.

    Lower bounds use ceiling division, upper bounds use floor division.
    ``divisor`` is 1 for plain affine bounds.
    """

    __slots__ = ("expr", "divisor", "is_lower")

    def __init__(self, expr: AffineExpr, divisor: int, is_lower: bool):
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        g = math.gcd(expr.content() or divisor, divisor)
        if g > 1:
            try:
                expr = expr // g
                divisor //= g
            except ValueError:
                pass
        self.expr = expr
        self.divisor = divisor
        self.is_lower = is_lower

    def evaluate(self, values: Mapping[str, int]) -> int:
        expr = self.expr
        value = expr.evaluate(values) if expr._coeffs else expr._const
        if self.is_lower:
            return -((-value) // self.divisor)  # ceil division
        return value // self.divisor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopBound):
            return NotImplemented
        return (
            self.expr == other.expr
            and self.divisor == other.divisor
            and self.is_lower == other.is_lower
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.divisor, self.is_lower))

    def __repr__(self) -> str:
        if self.divisor == 1:
            return str(self.expr)
        func = "ceil" if self.is_lower else "floor"
        return f"{func}(({self.expr})/{self.divisor})"


class _SystemKey:
    """``(dims, rows)`` of one set with its hash taken once: the
    order-exact memo key (a tuple would re-hash every row per lookup)."""

    __slots__ = ("system", "_hash")

    def __init__(self, dims: Tuple[str, ...], rows: Tuple[Row, ...]):
        self.system = (dims, rows)
        self._hash = hash(self.system)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, _SystemKey) and self.system == other.system
        )


class BasicSet:
    """A conjunction of affine constraints over an ordered dimension tuple."""

    __slots__ = ("dims", "rows", "_constraints", "_key", "_hash")

    def __init__(self, dims: Sequence[str], constraints: Iterable[Constraint] = ()):
        dims = tuple(dims)
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims!r}")
        index = {name: at for at, name in enumerate(dims)}
        rows = [_row_of(constraint, index, len(dims)) for constraint in constraints]
        _init(self, dims, _clean(rows, len(dims), True))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def box(bounds: Mapping[str, Tuple[int, int]], order: Optional[Sequence[str]] = None) -> "BasicSet":
        """A rectangular set ``{ d : lo <= d <= hi }`` per dimension.

        Bounds are inclusive on both ends, matching the half-open DSL
        ranges after ``hi = extent - 1`` conversion done by callers.
        """
        dims = tuple(order) if order is not None else tuple(bounds)
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims!r}")
        # ``d - lo >= 0`` and ``hi - d >= 0`` are normalized and pairwise
        # non-parallel already.
        width = len(dims)
        rows = []
        for at, name in enumerate(dims):
            lo, hi = bounds[name]
            unit = [0] * width
            unit[at] = 1
            rows.append(tuple(unit) + (-lo, 0))
            unit[at] = -1
            rows.append(tuple(unit) + (hi, 0))
        return _make(dims, tuple(rows))

    @staticmethod
    def universe(dims: Sequence[str]) -> "BasicSet":
        return BasicSet(dims, ())

    # -- the constraints, materialized ------------------------------------

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The rows as interned constraints, in row order (built once)."""
        constraints = self._constraints
        if constraints is None:
            order = self.name_order()
            constraints = self._constraints = tuple(
                row_constraint(self.dims, order, row) for row in self.rows
            )
        return constraints

    def name_order(self) -> List[int]:
        """The column indices in dim-name order (an expression's item order)."""
        return sorted(range(len(self.dims)), key=self.dims.__getitem__)

    def _system(self) -> _SystemKey:
        key = self._key
        if key is None:
            key = self._key = _SystemKey(self.dims, self.rows)
        return key

    # -- structural operations -------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        index = {name: at for at, name in enumerate(self.dims)}
        width = len(self.dims)
        rows = [_row_of(constraint, index, width) for constraint in extra]
        return _make(self.dims, _clean(self.rows + tuple(rows), width, True))

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return _make(self.dims, _clean(self.rows + other.rows, len(self.dims), True))

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        new_dims = tuple(mapping.get(d, d) for d in self.dims)
        if len(set(new_dims)) != len(new_dims):
            raise ValueError(f"duplicate dimension names in {new_dims!r}")
        return _make(new_dims, self.rows)

    def reorder_dims(self, new_order: Sequence[str]) -> "BasicSet":
        """Permute the dimension tuple (the constraints are unaffected)."""
        if set(new_order) != set(self.dims) or len(new_order) != len(self.dims):
            raise ValueError(f"{new_order!r} is not a permutation of {self.dims!r}")
        columns = [self.dims.index(name) for name in new_order]
        width = len(columns)
        return _make(
            tuple(new_order),
            tuple(tuple([row[k] for k in columns]) + row[width:] for row in self.rows),
        )

    def substitute_dim(
        self,
        old_dim: str,
        replacement: ExprLike,
        new_dims: Sequence[str],
        extra: Iterable[Constraint] = (),
    ) -> "BasicSet":
        """Replace ``old_dim`` by an affine expression over new dimensions.

        This is the workhorse behind split/tile/skew: e.g. splitting
        ``i`` by factor ``t`` substitutes ``i -> t*i0 + i1`` and adds
        ``0 <= i1 < t``.  ``new_dims`` is the full ordered dimension
        tuple of the result.
        """
        if old_dim not in self.dims:
            raise ValueError(f"unknown dimension {old_dim!r}")
        replacement = AffineExpr.coerce(replacement)
        new_dims = tuple(new_dims)
        if len(set(new_dims)) != len(new_dims):
            raise ValueError(f"duplicate dimension names in {new_dims!r}")
        index = {name: at for at, name in enumerate(new_dims)}
        width, new_width = len(self.dims), len(new_dims)
        at = self.dims.index(old_dim)
        moved = [(k, index.get(name)) for k, name in enumerate(self.dims) if k != at]
        terms = [(index.get(name), coeff) for name, coeff in replacement._items]
        rows = []
        for row in self.rows:
            coeffs = [0] * new_width
            for k, column in moved:
                if row[k]:
                    coeffs[_known(column, self.dims[k])] += row[k]
            a = row[at]
            if a:
                for column, coeff in terms:
                    coeffs[_known(column, replacement)] += a * coeff
                rows.append(_normalized(coeffs, row[width] + a * replacement._const, row[-1]))
            else:
                rows.append(tuple(coeffs) + row[width:])
        rows += [_row_of(constraint, index, new_width) for constraint in extra]
        return _make(new_dims, _clean(rows, new_width, True))

    def drop_dim(self, name: str) -> "BasicSet":
        """Project out a dimension via Fourier-Motzkin elimination.

        Elimination results are memoized globally (sets are immutable;
        the key is the exact ordered constraint system, so a memoized
        result is bit-identical to a fresh computation).
        """
        if name not in self.dims:
            raise ValueError(f"unknown dimension {name!r}")
        memo = _memo.active()
        key = None
        if memo.enabled:
            key = (self._system(), name)
            cached = memo.projection.get(key)
            if cached is not None:
                return cached
        at = self.dims.index(name)
        rows = _eliminate(self.rows, at, name)
        result = _make(self.dims[:at] + self.dims[at + 1:], _clean(rows, len(self.dims) - 1, True))
        if key is not None:
            memo.projection.put(key, result)
        return result

    def project_onto(self, keep: Sequence[str]) -> "BasicSet":
        """Project out every dimension not in ``keep``."""
        result = self
        for name in [d for d in self.dims if d not in keep]:
            result = result.drop_dim(name)
        order = tuple(d for d in keep if d in result.dims)
        return result if order == result.dims else result.reorder_dims(order)

    def _reaching(self, name: str, keep: Sequence[str]) -> "BasicSet":
        """The constraints that can reach ``name`` when projecting onto ``keep``.

        Fourier-Motzkin only ever combines two constraints over the dim
        it eliminates, so a constraint can contribute to a projected
        constraint involving ``name`` only through a chain of shared
        *eliminated* dims: start from the constraints involving ``name``
        and close under "shares a dim outside ``keep``".  The rest never
        meets this component in a pairing or a substitution (at most it
        equals one of its ``keep``-only by-products, which involve no
        ``name``), and ``others + combos``, the dedupe and the parallel
        pruning keep the relative order of what survives: the
        ``name``-involving constraints of ``project_onto(keep)`` are the
        same, in the same order, from this subset as from the whole.  A
        subset of a pruned system is pruned, so nothing is re-checked.
        """
        dims = self.dims
        width = len(dims)
        kept = set(keep)
        masks = [_mask(row, width) for row in self.rows]
        live = 1 << dims.index(name)
        outside = _mask([dims[k] not in kept for k in range(width)], width)
        picked = [False] * len(masks)
        grew = True
        while grew:
            grew = False
            for at, mask in enumerate(masks):
                if not picked[at] and mask & live:
                    picked[at] = grew = True
                    live |= mask & outside
        columns = [k for k in range(width) if live >> k & 1 or dims[k] in kept]
        return _make(
            tuple(dims[k] for k in columns),
            tuple(
                tuple([row[k] for k in columns]) + row[width:]
                for row, hit in zip(self.rows, picked) if hit
            ),
        )

    def product(self, other: "BasicSet") -> "BasicSet":
        """The pairs ``(x, y)`` with ``x`` in ``self`` and ``y`` in ``other``,
        over ``self.dims + other.dims`` (which must be disjoint)."""
        dims = self.dims + other.dims
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims!r}")
        width, other_width = len(self.dims), len(other.dims)
        right, left = (0,) * other_width, (0,) * width
        return _make(dims, tuple(
            [row[:width] + right + row[width:] for row in self.rows]
            + [left + row for row in other.rows]
        ))

    def add_dims(self, names: Sequence[str]) -> "BasicSet":
        """Append unconstrained dimensions."""
        dims = self.dims + tuple(names)
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims!r}")
        width = len(self.dims)
        pad = (0,) * len(names)
        return _make(dims, tuple(row[:width] + pad + row[width:] for row in self.rows))

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        """Rational emptiness via full Fourier-Motzkin elimination.

        Each elimination step applies integer tightening (see
        :mod:`repro.isl.constraint`), which keeps the test exact for the
        loop-bound style sets this library manipulates.
        """
        memo = _memo.active()
        key = None
        if memo.enabled:
            key = self
            cached = memo.emptiness.get(key)
            if cached is not None:
                return cached
        result = self._is_empty_uncached()
        if key is not None:
            memo.emptiness.put(key, result)
        return result

    def _is_empty_uncached(self) -> bool:
        rows = self.rows
        if any(map(_contradiction, rows)):
            return True
        for name in self.dims:
            rows = _eliminate(rows, 0, name)
            if any(map(_contradiction, rows)):
                return True
        return False

    def contains(self, point: Mapping[str, int]) -> bool:
        dims = self.dims
        width = len(dims)
        for row in self.rows:
            total = row[width]
            for k in range(width):
                if row[k]:
                    total += row[k] * point[dims[k]]
            if total != 0 if row[-1] else total < 0:
                return False
        return True

    def dim_bounds(self, name: str, context: Sequence[str] = ()) -> Tuple[List[LoopBound], List[LoopBound]]:
        """Lower/upper bounds of ``name`` as a function of ``context`` dims.

        All dimensions other than ``name`` and the context are projected
        out first -- unless no constraint on ``name`` mentions another
        dim: projecting would return exactly those constraints, in order,
        so they are read directly (reference mode always projects).
        Each inequality ``a*name + e >= 0`` with ``a > 0`` contributes a
        lower bound ``ceil(-e / a)``; with ``a < 0`` an upper bound
        ``floor(e / -a)`` -- exactly how isl's ast_build derives loop
        bounds.  An equality contributes both.  Bounds are deduplicated
        as rows; only the survivors become :class:`LoopBound` objects.
        """
        memo = _memo.active()
        key = None
        if memo.enabled:
            key = (self._system(), name, tuple(context))
            cached = memo.bounds.get(key)
            if cached is not None:
                return list(cached[0]), list(cached[1])
        lowers: List[LoopBound] = []
        uppers: List[LoopBound] = []
        if name in self.dims:
            dims = self.dims
            width = len(dims)
            at = dims.index(name)
            keep = list(context) + [name]
            rows = [row for row in self.rows if row[at]]
            outside = [k for k in range(width) if dims[k] not in keep]
            if _intern._REFERENCE or outside and any(row[k] for row in rows for k in outside):
                source = self if _intern._REFERENCE else self._reaching(name, keep)
                projected = source.project_onto(keep)
                dims, rows = projected.dims, projected.rows
                width = len(dims)
                at = dims.index(name)
            _bounds_of(rows, dims, at, lowers, uppers)
        if key is not None:
            memo.bounds.put(key, (tuple(lowers), tuple(uppers)))
        return lowers, uppers

    def constant_bounds(self, name: str) -> Tuple[Optional[int], Optional[int]]:
        """Constant lower/upper bounds of a dimension, if they exist."""
        lowers, uppers = self.dim_bounds(name)
        lo = None
        hi = None
        for bound in lowers:
            if bound.expr.is_constant():
                value = bound.evaluate({})
                lo = value if lo is None else max(lo, value)
        for bound in uppers:
            if bound.expr.is_constant():
                value = bound.evaluate({})
                hi = value if hi is None else min(hi, value)
        return lo, hi

    def _box_ranges(self, limit: int) -> List[range]:
        """Per-dim candidate ranges of the bounding box, or ValueError."""
        ranges = []
        total = 1
        for name in self.dims:
            lo, hi = self.constant_bounds(name)
            if lo is None or hi is None:
                raise ValueError(f"dimension {name!r} is unbounded; cannot enumerate")
            span = max(0, hi - lo + 1)
            total *= span
            if total > limit:
                raise ValueError(f"set too large to enumerate (> {limit} candidates)")
            ranges.append(range(lo, hi + 1))
        return ranges

    def _candidate_mask(self, ranges: List[range]):
        """``(candidates, mask)`` numpy pair for the box, or None to
        fall back to the scalar loop (reference mode, 0-dim sets, or
        values outside the int64-safe window)."""
        if not self.dims or _intern.reference_mode():
            return None
        candidates = _matrix.candidate_grid(ranges)
        if candidates is None:
            return None
        mask = _matrix.contains_batch(candidates, self.dims, self.constraints)
        if mask is None:
            return None
        return candidates, mask

    def points(self, limit: int = 1_000_000) -> Iterator[Dict[str, int]]:
        """Enumerate all integer points (small sets only; test ground truth).

        Raises :class:`ValueError` if any dimension lacks constant bounds
        or the bounding box exceeds ``limit`` points.  The vectorized and
        scalar paths yield identical points in identical (C) order.
        """
        ranges = self._box_ranges(limit)
        fast = self._candidate_mask(ranges)
        if fast is not None:
            candidates, mask = fast
            for row in candidates[mask].tolist():
                yield dict(zip(self.dims, row))
            return
        for combo in itertools.product(*ranges):
            point = dict(zip(self.dims, combo))
            if self.contains(point):
                yield point

    def count_points(self, limit: int = 1_000_000) -> int:
        ranges = self._box_ranges(limit)
        fast = self._candidate_mask(ranges)
        if fast is not None:
            return int(fast[1].sum())
        return sum(
            1
            for combo in itertools.product(*ranges)
            if self.contains(dict(zip(self.dims, combo)))
        )

    def sample(self) -> Optional[Dict[str, int]]:
        """The lexicographically smallest integer point, or None when empty.

        Dimensions are eliminated last to first *once*; system ``k`` of
        that chain bounds ``dims[k]`` in terms of the earlier dims, so
        the search walks first to last, evaluating each range at the
        values already fixed with plain integer arithmetic.  Ranges are
        tried in ascending order with full backtracking and the found
        point is checked against the original constraints, so loose
        Fourier-Motzkin bounds cost time, never correctness.  A
        direction with no bound is searched in a window of 33 values
        (around zero, or from its one bound), which is exact for the
        bounded sets the loop transformations in this library produce.
        """
        return _sample(self)

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self.dims == other.dims and set(self.rows) == set(other.rows)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dims, frozenset(self.rows)))
        return self._hash

    def __repr__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ [{', '.join(self.dims)}] : {body} }}"


def _init(bset: BasicSet, dims: Tuple[str, ...], rows: Tuple[Row, ...]) -> None:
    bset.dims = dims
    bset.rows = rows
    bset._constraints = None
    bset._key = None
    bset._hash = None


def _make(dims: Tuple[str, ...], rows: Tuple[Row, ...]) -> BasicSet:
    """A set over rows that are normalized and pruned already."""
    bset = object.__new__(BasicSet)
    _init(bset, dims, rows)
    return bset


def _row_of(constraint: Constraint, index: Mapping[str, int], width: int) -> Row:
    """``constraint`` as a row over the dims ``index`` numbers."""
    coeffs = [0] * width
    for name, coeff in constraint.expr._items:
        at = index.get(name)
        if at is None:
            raise ValueError(f"constraint {constraint} uses unknown dimension {name!r}")
        coeffs[at] = coeff
    return tuple(coeffs) + (constraint.expr._const, 1 if constraint.kind == EQ else 0)


def row_constraint(dims: Tuple[str, ...], order: Sequence[int], row: Row) -> Constraint:
    """The interned constraint of ``row`` over ``dims`` (``order``: the
    set's :meth:`BasicSet.name_order`)."""
    items = tuple([(dims[k], row[k]) for k in order if row[k]])
    return _intern_normalized(_from_items(items, row[-2]), EQ if row[-1] else GE)


def _known(column: Optional[int], term: object) -> int:
    if column is None:
        raise ValueError(f"substitution result uses a dimension outside new_dims: {term}")
    return column


def _normalized(coeffs: List[int], const: int, eq: int) -> Row:
    """A row normalized as :class:`Constraint` is: the coefficient gcd
    divided out, with the constant floored on an inequality and an
    equality left as it is when the gcd does not divide its constant."""
    g = _gcd(*coeffs)
    if g > 1 and (not eq or const % g == 0):
        return tuple([c // g for c in coeffs]) + (const // g, eq)
    return tuple(coeffs) + (const, eq)


def _mask(row: Sequence[int], width: int) -> int:
    """The bit set of the columns among the first ``width`` that are nonzero."""
    mask = 0
    for k in range(width):
        if row[k]:
            mask |= 1 << k
    return mask


def _contradiction(row: Row) -> bool:
    """Whether no point satisfies ``row`` (the gcd test on an equality)."""
    if row[-1]:
        g = _gcd(*row[:-2])
        return row[-2] != 0 if g == 0 else row[-2] % g != 0
    return row[-2] < 0 and not any(row[:-2])


def _clean(rows: Iterable[Row], width: int, drop_tautologies: bool) -> Tuple[Row, ...]:
    """Dedupe ``rows`` in order and collapse parallel ones.

    Normalization divides every row by its coefficient gcd, so the
    scalar multiples that survive are (a) *parallel inequalities* --
    identical coefficients with different constants, whose conjunction
    is the tightest one alone -- and (b) *negated equalities*
    (``e == 0`` vs ``-e == 0``), the same hyperplane.  Without this
    pruning, repeated ``intersect`` + ``project_onto`` chains accumulate
    parallel rows without bound (each Fourier-Motzkin step combines them
    pairwise).  The first occurrence of a coefficient vector keeps its
    position; a later, tighter parallel inequality replaces it in place.
    Constant rows are kept untouched (contradictions must survive for
    emptiness detection); tautologies are dropped when asked.
    """
    # A repeated row is a parallel inequality that is not tighter, or an
    # equality whose key is taken: only constant rows need a seen set.
    constants = set()
    ge_slots: Dict[Row, int] = {}
    eq_seen = set()
    kept: List[Row] = []
    for row in rows:
        coeffs = row[:width]
        if not any(coeffs):
            const = row[width]
            if row not in constants and (
                not drop_tautologies or (const != 0 if row[-1] else const < 0)
            ):
                constants.add(row)
                kept.append(row)
        elif row[-1]:
            # Sign-canonical key so e == 0 and -e == 0 collide.
            key = row[:-1]
            if next(c for c in coeffs if c) < 0:
                key = tuple([-c for c in key])
            if key not in eq_seen:
                eq_seen.add(key)
                kept.append(row)
        else:
            at = ge_slots.get(coeffs)
            if at is None:
                ge_slots[coeffs] = len(kept)
                kept.append(row)
            elif row[width] < kept[at][width]:
                kept[at] = row
    return tuple(kept)


def _eliminate(rows: Sequence[Row], at: int, name: str) -> List[Row]:
    """One Fourier-Motzkin elimination step for column ``at`` (dim ``name``).

    Equalities with a unit coefficient on the dim are used as
    substitutions (keeping arithmetic exact); otherwise an equality is
    both a lower and an upper bound.  The result has the column removed.
    """
    # Watchdog checkpoint: Fourier-Motzkin is quadratic per step and the
    # constraint system can blow up on skewed nests; this is where a
    # hung DSE candidate gets preempted cooperatively.  The same poll
    # point doubles as the tracing hook (both are one load + None test
    # when off, cheap enough for this hot loop).
    _deadline.checkpoint()
    _trace.count("isl.fm_eliminations")
    width = len(rows[0]) - 2 if rows else 0
    # Prefer substitution through an equality with unit coefficient.
    for pivot in rows:
        a = pivot[at]
        if pivot[-1] and (a == 1 or a == -1):
            # a*x + rest == 0: each other row b*x + r becomes r - b*a*rest.
            out = []
            for other in rows:
                if other == pivot:
                    continue
                b = other[at]
                if b:
                    f = b * a
                    coeffs = [c - f * p for c, p in zip(other[:width], pivot)]
                    del coeffs[at]
                    out.append(_normalized(coeffs, other[width] - f * pivot[width], other[-1]))
                else:
                    out.append(other[:at] + other[at + 1:])
            return out

    positives: List[Tuple[int, Row]] = []  # a > 0: a*x >= -rest
    negatives: List[Tuple[int, Row]] = []  # a < 0
    others: List[Row] = []
    for row in rows:
        a = row[at]
        if not a:
            others.append(row[:at] + row[at + 1:])
            continue
        rest = row[:at] + row[at + 1:-1]  # other coefficients, then the constant
        if row[-1]:
            negated = tuple([-c for c in rest])
            if a > 0:
                positives.append((a, rest))
                negatives.append((-a, negated))
            else:
                negatives.append((a, rest))
                positives.append((-a, negated))
        elif a > 0:
            positives.append((a, rest))
        else:
            negatives.append((a, rest))

    check_fm_pairs(len(positives), len(negatives), name)
    # ap*x + rp >= 0 and an*x + rn >= 0 with ap > 0 > an combine to
    # (-an)*rp + ap*rn >= 0, normalized as a Constraint would be.  Per
    # coefficient vector only the tightest row is kept, at its first
    # position: the row the parallel pruning below would keep.  Constant
    # rows are keyed by their constant: tautologies are dropped, each
    # contradiction is kept.
    tightest: Dict[object, int] = {}
    for ap, rp in positives:
        for an, rn in negatives:
            combined = [-an * p + ap * n for p, n in zip(rp, rn)]
            const = combined.pop()
            g = _gcd(*combined)
            if g == 0:
                if const < 0:
                    tightest.setdefault(const, const)
                continue
            if g > 1:
                combined = [c // g for c in combined]
                const //= g
            key = tuple(combined)
            if const < tightest.get(key, const + 1):
                tightest[key] = const
    zero = (0,) * (width - 1)
    for key, const in tightest.items():
        others.append((key if isinstance(key, tuple) else zero) + (const, 0))
    return list(_clean(others, width - 1, False))


def _bounds_of(
    rows: Iterable[Row], dims: Tuple[str, ...], at: int,
    lowers: List[LoopBound], uppers: List[LoopBound],
) -> None:
    """Append the distinct loop bounds ``rows`` put on ``dims[at]``.

    ``a*x + r >= 0`` is the lower bound ``ceil(-r / a)`` when ``a > 0``
    and the upper bound ``floor(r / -a)`` when ``a < 0``; an equality is
    both, over the same expression.  Each bound is reduced as
    :class:`LoopBound` reduces it and deduplicated as a row first.
    """
    width = len(dims)
    order = sorted((k for k in range(width) if k != at), key=dims.__getitem__)
    seen = (set(), set())
    for row in rows:
        a = row[at]
        if not a:
            continue
        if a > 0:
            coeffs = [-row[k] for k in order]
            value, divisor = -row[width], a
        else:
            coeffs = [row[k] for k in order]
            value, divisor = row[width], -a
        if divisor > 1:
            g = _gcd(_gcd(*coeffs, value) or divisor, divisor)
            if g > 1:
                coeffs = [c // g for c in coeffs]
                value //= g
                divisor //= g
        key = (tuple(coeffs), value, divisor)
        expr = None
        for is_lower in (True, False) if row[-1] else (a > 0,):
            if key in seen[is_lower]:
                continue
            seen[is_lower].add(key)
            if expr is None:
                expr = _from_items(
                    tuple((dims[k], c) for k, c in zip(order, coeffs) if c), value
                )
            bound = object.__new__(LoopBound)
            bound.expr = expr
            bound.divisor = divisor
            bound.is_lower = is_lower
            (lowers if is_lower else uppers).append(bound)


def _sample(bset: BasicSet) -> Optional[Dict[str, int]]:
    """Back-substitution over one elimination chain (see ``sample``)."""
    dims = bset.dims
    # levels[k]: the rows ``a*dims[k] + rest >= 0`` of the system over
    # dims[:k + 1], as (a, earlier-dim terms, constant); an equality
    # contributes the row and its negation.
    levels = []
    rows = bset.rows
    for k in range(len(dims) - 1, -1, -1):
        level = []
        for row in rows:
            a = row[k]
            if a:
                rest = tuple((at, row[at]) for at in range(k) if row[at])
                level.append((a, rest, row[k + 1]))
                if row[-1]:
                    negated = tuple((at, -c) for at, c in rest)
                    level.append((-a, negated, -row[k + 1]))
        levels.append(level)
        rows = _eliminate(rows, k, dims[k])
        if any(map(_contradiction, rows)):
            return None
    levels.reverse()
    values = [0] * len(dims)

    def search(k: int) -> Optional[Dict[str, int]]:
        if k == len(dims):
            point = dict(zip(dims, values))
            return point if bset.contains(point) else None
        _deadline.checkpoint()
        lo = hi = None
        for a, rest, r in levels[k]:
            for at, coeff in rest:
                r += coeff * values[at]
            if a > 0:  # x >= ceil(-r / a)
                lo = -(r // a) if lo is None else max(lo, -(r // a))
            else:  # x <= floor(r / -a)
                hi = r // -a if hi is None else min(hi, r // -a)
        if lo is None and hi is None:
            lo, hi = -16, 16  # unbounded direction: a small window
        elif hi is None:
            hi = lo + 32
        elif lo is None:
            lo = hi - 32
        for value in range(lo, hi + 1):
            values[k] = value
            found = search(k + 1)
            if found is not None:
                return found
        return None

    return search(0)
