"""Basic integer sets: conjunctions of affine constraints over named dims.

A :class:`BasicSet` plays the role of an isl ``basic_set``: it is an
ordered tuple of dimension names plus a list of constraints.  It supports
the operations the polyhedral IR needs -- intersection, dimension
substitution (the mechanism behind split/tile/skew), Fourier-Motzkin
projection, rational emptiness testing with integer tightening, loop
bound extraction for code generation, and exhaustive point enumeration
for small sets (used heavily by the test suite as ground truth).
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
from repro.isl.constraint import (
    EQ,
    GE,
    Constraint,
    _intern_normalized,
    check_fm_pairs,
    prune_parallel,
)
from repro.util import deadline as _deadline

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
        value = self.expr.evaluate(values)
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


class BasicSet:
    """A conjunction of affine constraints over an ordered dimension tuple."""

    __slots__ = ("dims", "constraints", "_hash")

    def __init__(self, dims: Sequence[str], constraints: Iterable[Constraint] = ()):
        if len(set(dims)) != len(dims):
            raise ValueError(f"duplicate dimension names in {dims!r}")
        self._hash: Optional[int] = None
        self.dims: Tuple[str, ...] = tuple(dims)
        dim_set = set(self.dims)
        seen = set()
        kept: List[Constraint] = []
        for constraint in constraints:
            for name in constraint.expr._coeffs:
                if name not in dim_set:
                    raise ValueError(
                        f"constraint {constraint} uses unknown dimension {name!r}"
                    )
            if constraint.is_tautology() or constraint in seen:
                continue
            seen.add(constraint)
            kept.append(constraint)
        self.constraints: Tuple[Constraint, ...] = tuple(prune_parallel(kept))

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
        # ``d - lo >= 0`` and ``hi - d >= 0`` are already normalized and
        # pairwise non-parallel: intern them as they are and skip the
        # constructor's checks (the same objects Constraint.ge/le build).
        constraints = []
        for name in dims:
            lo, hi = bounds[name]
            constraints.append(_intern_normalized(_from_items(((name, 1),), -lo), GE))
            constraints.append(_intern_normalized(_from_items(((name, -1),), hi), GE))
        return _pruned(dims, tuple(constraints))

    @staticmethod
    def universe(dims: Sequence[str]) -> "BasicSet":
        return BasicSet(dims, ())

    # -- structural operations -------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.dims, list(self.constraints) + list(extra))

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return self.with_constraints(other.constraints)

    def rename_dims(self, mapping: Mapping[str, str]) -> "BasicSet":
        new_dims = tuple(mapping.get(d, d) for d in self.dims)
        return BasicSet(new_dims, [c.rename(mapping) for c in self.constraints])

    def reorder_dims(self, new_order: Sequence[str]) -> "BasicSet":
        """Permute the dimension tuple (constraints are unaffected)."""
        if set(new_order) != set(self.dims) or len(new_order) != len(self.dims):
            raise ValueError(f"{new_order!r} is not a permutation of {self.dims!r}")
        return _pruned(tuple(new_order), self.constraints)

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
        constraints = [c.substitute({old_dim: replacement}) for c in self.constraints]
        result = BasicSet(tuple(new_dims), constraints)
        return result.with_constraints(extra)

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
            key = (self.dims, self.constraints, name)
            cached = memo.projection.get(key)
            if cached is not None:
                return cached
        constraints = _eliminate(list(self.constraints), name)
        remaining = tuple(d for d in self.dims if d != name)
        result = BasicSet(remaining, constraints)
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
        ``name``), and ``others + combos``, the dedupe and
        ``prune_parallel`` keep the relative order of what survives: the
        ``name``-involving constraints of ``project_onto(keep)`` are the
        same, in the same order, from this subset as from the whole.  A
        subset of a pruned system is pruned, so nothing is re-checked.
        """
        kept = set(keep)
        live = {name}
        picked = [False] * len(self.constraints)
        grew = True
        while grew:
            grew = False
            for at, constraint in enumerate(self.constraints):
                coeffs = constraint.expr._coeffs
                if not picked[at] and not live.isdisjoint(coeffs):
                    picked[at] = grew = True
                    live.update(d for d in coeffs if d not in kept)
        return _pruned(
            tuple(d for d in self.dims if d in kept or d in live),
            tuple(c for c, hit in zip(self.constraints, picked) if hit),
        )

    def add_dims(self, names: Sequence[str]) -> "BasicSet":
        """Append unconstrained dimensions."""
        return BasicSet(self.dims + tuple(names), self.constraints)

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
        constraints = list(self.constraints)
        if any(c.is_contradiction() for c in constraints):
            return True
        for name in self.dims:
            constraints = _eliminate(constraints, name)
            if any(c.is_contradiction() for c in constraints):
                return True
        return False

    def contains(self, point: Mapping[str, int]) -> bool:
        return all(c.satisfied_by(point) for c in self.constraints)

    def dim_bounds(self, name: str, context: Sequence[str] = ()) -> Tuple[List[LoopBound], List[LoopBound]]:
        """Lower/upper bounds of ``name`` as a function of ``context`` dims.

        All dimensions other than ``name`` and the context are projected
        out first -- unless no constraint on ``name`` mentions another
        dim: projecting would return exactly those constraints, in order,
        so they are read directly (reference mode always projects).
        Each inequality ``a*name + e >= 0`` with ``a > 0`` contributes a
        lower bound ``ceil(-e / a)``; with ``a < 0`` an upper bound
        ``floor(e / -a)`` -- exactly how isl's ast_build derives loop
        bounds.
        """
        memo = _memo.active()
        key = None
        if memo.enabled:
            key = (self.dims, self.constraints, name, tuple(context))
            cached = memo.bounds.get(key)
            if cached is not None:
                return list(cached[0]), list(cached[1])
        keep = list(context) + [name]
        rows = [c for c in self.constraints if name in c.expr._coeffs]
        if _intern._REFERENCE or not all(d in keep for c in rows for d in c.expr._coeffs):
            source = self if _intern._REFERENCE else self._reaching(name, keep)
            rows = source.project_onto(keep).constraints
        lowers: List[LoopBound] = []
        uppers: List[LoopBound] = []
        for constraint in rows:
            a = constraint.expr._coeffs.get(name, 0)
            if a == 0:
                continue
            rest = _without(constraint.expr, name)
            kinds = [constraint.kind]
            if constraint.kind == EQ:
                kinds = [GE, "le"]
            for kind in kinds:
                if kind == GE:
                    if a > 0:
                        lowers.append(LoopBound(-rest, a, is_lower=True))
                    else:
                        uppers.append(LoopBound(rest, -a, is_lower=False))
                else:  # the <= half of an equality: -(a*name + e) >= 0
                    if a > 0:
                        uppers.append(LoopBound(-rest, a, is_lower=False))
                    else:
                        lowers.append(LoopBound(rest, -a, is_lower=True))
        lowers, uppers = _dedupe(lowers), _dedupe(uppers)
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
        return self.dims == other.dims and set(self.constraints) == set(other.constraints)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dims, frozenset(self.constraints)))
        return self._hash

    def __repr__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ [{', '.join(self.dims)}] : {body} }}"


def _pruned(dims: Tuple[str, ...], constraints: Tuple[Constraint, ...]) -> BasicSet:
    """A set over a subset or permutation of an already-pruned system.

    Skips the constructor's checks, deduplication and pruning, which
    would keep ``constraints`` as they are.
    """
    bset = object.__new__(BasicSet)
    bset._hash = None
    bset.dims = dims
    bset.constraints = constraints
    return bset


def _without(expr: AffineExpr, name: str) -> AffineExpr:
    """``expr`` with the term in ``name`` dropped."""
    return _from_items(tuple(item for item in expr._items if item[0] != name), expr._const)


def _dedupe(bounds: List[LoopBound]) -> List[LoopBound]:
    seen = set()
    result = []
    for bound in bounds:
        if bound not in seen:
            seen.add(bound)
            result.append(bound)
    return result


def _eliminate(constraints: List[Constraint], name: str) -> List[Constraint]:
    """One Fourier-Motzkin elimination step for dimension ``name``.

    Equalities involving ``name`` are used as substitutions when the
    coefficient is a unit (keeping arithmetic exact); otherwise they are
    decomposed into two inequalities.
    """
    # Watchdog checkpoint: Fourier-Motzkin is quadratic per step and the
    # constraint system can blow up on skewed nests; this is where a
    # hung DSE candidate gets preempted cooperatively.  The same poll
    # point doubles as the tracing hook (both are one load + None test
    # when off, cheap enough for this hot loop).
    _deadline.checkpoint()
    _trace.count("isl.fm_eliminations")
    # Prefer substitution through an equality with unit coefficient.
    for constraint in constraints:
        if constraint.kind != EQ:
            continue
        a = constraint.expr._coeffs.get(name, 0)
        if a == 1 or a == -1:
            # a*name + rest == 0  ->  name == -rest/a
            rest = _without(constraint.expr, name)
            replacement = -rest if a == 1 else rest
            out = []
            for other in constraints:
                if other is constraint:
                    continue
                out.append(other.substitute({name: replacement}))
            return out

    positives: List[Tuple[int, AffineExpr]] = []  # a > 0: a*name >= -rest
    negatives: List[Tuple[int, AffineExpr]] = []  # a < 0
    others: List[Constraint] = []
    for constraint in constraints:
        expr = constraint.expr
        a = expr._coeffs.get(name, 0)
        if a == 0:
            others.append(constraint)
            continue
        rest = _without(expr, name)
        if constraint.kind == EQ:
            # an equality is both a lower and an upper bound on `name`
            if a > 0:
                positives.append((a, rest))
                negatives.append((-a, -rest))
            else:
                negatives.append((a, rest))
                positives.append((-a, -rest))
        elif a > 0:
            positives.append((a, rest))
        else:
            negatives.append((a, rest))

    check_fm_pairs(len(positives), len(negatives), name)
    # Pairs are combined in plain integers and normalized as the
    # Constraint constructor would.  Per coefficient vector only the
    # tightest row is kept, at its first position: the row the
    # prune_parallel below would keep.  A step may pair up to
    # MAX_FM_PAIRS rows of which few survive, and only the survivors
    # become interned constraints.  Constant rows are keyed by their
    # constant: tautologies are dropped, each contradiction is kept.
    tightest: Dict[object, int] = {}
    for (ap, rp) in positives:
        for (an, rn) in negatives:
            # ap*name + rp >= 0 and an*name + rn >= 0 with ap>0, an<0
            # combine: (-an)*rp + ap*rn >= 0.
            coeffs = {n: c * -an for n, c in rp._coeffs.items()}
            for n, c in rn._coeffs.items():
                coeffs[n] = coeffs.get(n, 0) + c * ap
            const = rp._const * -an + rn._const * ap
            g = 0
            for c in coeffs.values():
                g = math.gcd(g, c)
            if g == 0:
                if const < 0:
                    tightest.setdefault(const, const)
                continue
            key = tuple(sorted((n, c // g) for n, c in coeffs.items() if c))
            const //= g
            if const < tightest.get(key, const + 1):
                tightest[key] = const
    # The survivors are normalized already (sorted, gcd 1): intern them
    # as they are.
    for key, const in tightest.items():
        items = key if isinstance(key, tuple) else ()
        others.append(_intern_normalized(_from_items(items, const), GE))
    # Dedupe while preserving order, then collapse parallel constraints
    # (scalar multiples) so repeated intersect/project chains stay
    # bounded -- see :func:`repro.isl.constraint.prune_parallel`.
    seen = set()
    result = []
    for constraint in others:
        if constraint not in seen:
            seen.add(constraint)
            result.append(constraint)
    return prune_parallel(result)


def _sample(bset: BasicSet) -> Optional[Dict[str, int]]:
    """Back-substitution over one elimination chain (see ``sample``)."""
    dims = bset.dims
    position = {name: k for k, name in enumerate(dims)}
    # levels[k]: the rows ``a*dims[k] + rest >= 0`` of the system over
    # dims[:k + 1], as (a, earlier-dim terms, constant); an equality
    # contributes the row and its negation.
    levels = []
    constraints = list(bset.constraints)
    for name in reversed(dims):
        rows = []
        for constraint in constraints:
            a = constraint.expr._coeffs.get(name, 0)
            if a:
                rest = tuple(
                    (position[n], c) for n, c in constraint.expr._items if n != name
                )
                rows.append((a, rest, constraint.expr._const))
                if constraint.kind == EQ:
                    negated = tuple((at, -c) for at, c in rest)
                    rows.append((-a, negated, -constraint.expr._const))
        levels.append(rows)
        constraints = _eliminate(constraints, name)
        if any(c.is_contradiction() for c in constraints):
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
