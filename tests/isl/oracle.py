"""The object-level Fourier-Motzkin step, bound extraction and parallel
pruning, as ``repro.isl.sets`` ran them over ``Constraint`` lists before
it held its systems as integer rows.  Kept as the oracle the row
versions must match constraint for constraint, in order.
"""

import math
from typing import Dict, List, Sequence, Tuple

from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr, _from_items
from repro.isl.constraint import EQ, GE, Constraint, _intern_normalized, check_fm_pairs
from repro.isl import sets
from repro.isl.sets import LoopBound, _make, _row_of


def prune_parallel(constraints):
    """Collapse constraints that are scalar multiples of each other: the
    tightest of parallel inequalities at the first one's position, the
    first of ``e == 0`` / ``-e == 0``; constant constraints untouched."""
    ge_slots = {}
    eq_seen = set()
    kept = []
    for constraint in constraints:
        expr = constraint.expr
        items = expr._items
        if not items:
            kept.append(constraint)
            continue
        if constraint.kind == GE:
            at = ge_slots.get(items)
            if at is None:
                ge_slots[items] = len(kept)
                kept.append(constraint)
            elif expr._const < kept[at].expr._const:
                kept[at] = constraint
        else:
            if items[0][1] < 0:
                key = (tuple((n, -c) for n, c in items), -expr._const)
            else:
                key = (items, expr._const)
            if key not in eq_seen:
                eq_seen.add(key)
                kept.append(constraint)
    return kept


def construct(constraints) -> List[Constraint]:
    """What the ``BasicSet`` constructor keeps: no tautologies, no
    duplicates, parallel constraints pruned."""
    seen = set()
    kept = []
    for constraint in constraints:
        if constraint.is_tautology() or constraint in seen:
            continue
        seen.add(constraint)
        kept.append(constraint)
    return prune_parallel(kept)


def _without(expr: AffineExpr, name: str) -> AffineExpr:
    return _from_items(tuple(item for item in expr._items if item[0] != name), expr._const)


def eliminate(constraints: List[Constraint], name: str) -> List[Constraint]:
    """One Fourier-Motzkin elimination step for dimension ``name``."""
    for constraint in constraints:
        if constraint.kind != EQ:
            continue
        a = constraint.expr._coeffs.get(name, 0)
        if a == 1 or a == -1:
            rest = _without(constraint.expr, name)
            replacement = -rest if a == 1 else rest
            return [
                other.substitute({name: replacement})
                for other in constraints if other is not constraint
            ]

    positives: List[Tuple[int, AffineExpr]] = []
    negatives: List[Tuple[int, AffineExpr]] = []
    others: List[Constraint] = []
    for constraint in constraints:
        expr = constraint.expr
        a = expr._coeffs.get(name, 0)
        if a == 0:
            others.append(constraint)
            continue
        rest = _without(expr, name)
        if constraint.kind == EQ:
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
    tightest: Dict[object, int] = {}
    for (ap, rp) in positives:
        for (an, rn) in negatives:
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
    for key, const in tightest.items():
        items = key if isinstance(key, tuple) else ()
        others.append(_intern_normalized(_from_items(items, const), GE))
    seen = set()
    result = []
    for constraint in others:
        if constraint not in seen:
            seen.add(constraint)
            result.append(constraint)
    return prune_parallel(result)


def project_onto(dims: Sequence[str], constraints, keep: Sequence[str]) -> List[Constraint]:
    """``BasicSet.project_onto(keep)``'s constraints, one step at a time."""
    constraints = list(constraints)
    for name in [d for d in dims if d not in keep]:
        constraints = construct(eliminate(constraints, name))
    return constraints


def reaching(dims: Sequence[str], constraints, name: str, keep: Sequence[str]):
    """``BasicSet._reaching``: ``(dims, constraints)`` that can reach ``name``."""
    kept = set(keep)
    live = {name}
    picked = [False] * len(constraints)
    grew = True
    while grew:
        grew = False
        for at, constraint in enumerate(constraints):
            coeffs = constraint.expr._coeffs
            if not picked[at] and not live.isdisjoint(coeffs):
                picked[at] = grew = True
                live.update(d for d in coeffs if d not in kept)
    return (
        [d for d in dims if d in kept or d in live],
        [c for c, hit in zip(constraints, picked) if hit],
    )


def dim_bounds(
    dims: Sequence[str], constraints, name: str, context: Sequence[str] = ()
) -> Tuple[List[LoopBound], List[LoopBound]]:
    """``BasicSet.dim_bounds`` over constraint objects (no memo)."""
    keep = list(context) + [name]
    rows = [c for c in constraints if name in c.expr._coeffs]
    if _intern._REFERENCE or not all(d in keep for c in rows for d in c.expr._coeffs):
        source = (dims, constraints) if _intern._REFERENCE else reaching(dims, constraints, name, keep)
        rows = project_onto(*source, keep)
    lowers: List[LoopBound] = []
    uppers: List[LoopBound] = []
    for constraint in rows:
        a = constraint.expr._coeffs.get(name, 0)
        if a == 0:
            continue
        rest = _without(constraint.expr, name)
        kinds = [GE, "le"] if constraint.kind == EQ else [GE]
        for kind in kinds:
            if kind == GE:
                if a > 0:
                    lowers.append(LoopBound(-rest, a, is_lower=True))
                else:
                    uppers.append(LoopBound(rest, -a, is_lower=False))
            elif a > 0:
                uppers.append(LoopBound(-rest, a, is_lower=False))
            else:
                lowers.append(LoopBound(rest, -a, is_lower=True))
    return list(dict.fromkeys(lowers)), list(dict.fromkeys(uppers))


def dims_of(constraints, *names: str) -> Tuple[str, ...]:
    """The sorted dims ``constraints`` and ``names`` mention."""
    return tuple(sorted({d for c in constraints for d in c.expr._coeffs} | set(names)))


def row_eliminate(constraints, name: str) -> List[Constraint]:
    """``sets._eliminate`` on ``constraints`` as rows, read back as
    constraints over the remaining dims."""
    dims = dims_of(constraints, name)
    index = {d: at for at, d in enumerate(dims)}
    rows = [_row_of(c, index, len(dims)) for c in constraints]
    at = index[name]
    out = sets._eliminate(rows, at, name)
    return list(_make(dims[:at] + dims[at + 1:], tuple(out)).constraints)
