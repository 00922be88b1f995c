"""Vectorized (numpy) kernels for the Fourier-Motzkin substrate.

A constraint system over dims ``(d_0, ..., d_{D-1})`` packs into an
``n x (D+1)`` int64 matrix: row ``i`` holds the coefficients of
constraint ``i`` in column order, with the constant term in the last
column; a parallel boolean vector marks equality rows.  On that layout
one Fourier-Motzkin step is a broadcasted outer combination of the
positive and negative bound rows followed by vectorized normalization,
tautology filtering, and first-occurrence deduplication.

Every function here is **bit-identical** to the pure-Python reference
path in :mod:`repro.isl.sets` -- same constraints, same order -- which
is what allows :func:`repro.isl.sets._eliminate` to dispatch freely by
system size, and lets ``REPRO_ISL_REFERENCE=1`` serve as a differential
oracle rather than a behaviour switch.  The contract is enforced by
``tests/isl/test_matrix.py`` (including a hypothesis property test).

Coefficients beyond ``2**30`` in absolute value make the int64 pair
products unsafe; packing then returns ``None`` and callers fall back to
the exact big-integer reference path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, GE, Constraint, check_fm_pairs

#: Largest |coefficient| packed into int64 matrices: pair combination
#: multiplies two coefficients and adds, so 2 * (2**30)**2 < 2**63.
COEFF_LIMIT = 1 << 30


def pack_system(
    constraints: Sequence[Constraint],
    dims: Optional[Sequence[str]] = None,
) -> Optional[Tuple[List[str], "np.ndarray", "np.ndarray"]]:
    """Pack constraints into ``(names, matrix, is_eq)`` or None on overflow.

    ``names`` is the column order (``dims`` when given, else the sorted
    union of referenced dims); ``matrix`` is ``n x (len(names)+1)``
    int64 with the constant in the last column.
    """
    if dims is None:
        seen = set()
        for constraint in constraints:
            seen.update(constraint.expr._coeffs)
        names = sorted(seen)
    else:
        names = list(dims)
    index = {name: i for i, name in enumerate(names)}
    width = len(names) + 1
    matrix = np.zeros((len(constraints), width), dtype=np.int64)
    is_eq = np.zeros(len(constraints), dtype=bool)
    try:
        for row, constraint in enumerate(constraints):
            for name, coeff in constraint.expr._coeffs.items():
                if coeff > COEFF_LIMIT or coeff < -COEFF_LIMIT:
                    return None
                matrix[row, index[name]] = coeff
            const = constraint.expr._const
            if const > COEFF_LIMIT or const < -COEFF_LIMIT:
                return None
            matrix[row, width - 1] = const
            is_eq[row] = constraint.kind == EQ
    except (OverflowError, KeyError):
        # Overflow: coefficient outside int64.  KeyError: a dim not in
        # the caller-supplied column order (caller bug; be conservative).
        return None
    return names, matrix, is_eq


def _normalize_ge_rows(rows: "np.ndarray") -> "np.ndarray":
    """Vectorized inequality normalization: divide by the coefficient
    gcd with integer tightening of the constant (floor division),
    matching :func:`repro.isl.constraint._normalize` exactly."""
    if rows.shape[0] == 0 or rows.shape[1] == 1:
        return rows
    g = np.gcd.reduce(np.abs(rows[:, :-1]), axis=1)
    scale = np.where(g > 1, g, 1)
    out = rows.copy()
    # numpy's // is floor division, same as the tightening rule.
    out //= scale[:, None]
    return out


#: Row count below which the np.unique sort in _prune_parallel_rows
#: costs more than materializing the rows it would remove.
_DEDUPE_MIN_ROWS = 32


def _prune_parallel_rows(rows: "np.ndarray") -> "np.ndarray":
    """Matrix-domain parallel pruning for normalized GE rows.

    Groups rows by coefficient vector, keeps the minimum constant per
    group, and places the survivor at the group's first occurrence --
    exactly the outcome :func:`repro.isl.constraint.prune_parallel`
    computes for these rows in the eliminate tail (the joint prune with
    the untouched ``others`` constraints still runs afterwards and sees
    the same winners at the same slots).  Pair combination emits
    O(pos x neg) rows of which only a handful are non-redundant, so
    reducing in the matrix, before any Python-level materialization, is
    where the FM speedup comes from.
    """
    if rows.shape[0] < _DEDUPE_MIN_ROWS:
        return rows
    coeff_part = rows[:, :-1]
    # Constant rows (coeff vector all zero) are contradictions at this
    # point -- tautologies were filtered -- and prune_parallel keeps
    # every one of them, so they pass through untouched.
    idx = np.nonzero(coeff_part.any(axis=1))[0]
    if idx.shape[0] < 2:
        return rows
    sub = rows[idx]
    # Sort by coefficient vector (primary keys) with the constant as
    # the least-significant key, so each group is contiguous and its
    # first sorted row carries the minimum constant.
    order = np.lexsort(tuple(sub[:, c] for c in range(sub.shape[1] - 1, -1, -1)))
    sorted_rows = sub[order]
    changed = np.any(np.diff(sorted_rows[:, :-1], axis=0) != 0, axis=1)
    starts = np.concatenate(([0], np.nonzero(changed)[0] + 1))
    if starts.shape[0] == idx.shape[0]:
        return rows
    # Each group survives at its first occurrence in the original order.
    firsts = np.minimum.reduceat(idx[order], starts)
    out = rows.copy()
    out[firsts, -1] = sorted_rows[starts, -1]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[idx] = False
    keep[firsts] = True
    return out[keep]


def _materialize_ge(rows: "np.ndarray", names: List[str]) -> List[Constraint]:
    """Rows (already normalized) -> interned GE constraints.

    Uses the private fast-intern entry points: ``names`` is sorted (see
    :func:`pack_system`), so the per-row nonzero items ARE the
    structural intern key, and rows are normalized, so the Constraint
    constructor's re-normalization would be an identity walk.
    """
    from repro.isl.affine import _intern_sorted_items
    from repro.isl.constraint import _intern_normalized

    out = []
    for row in rows.tolist():
        items = tuple(
            (name, value) for name, value in zip(names, row[:-1]) if value
        )
        out.append(_intern_normalized(_intern_sorted_items(items, row[-1]), GE))
    return out


def _materialize_mixed(
    rows: "np.ndarray", is_eq: "np.ndarray", names: List[str]
) -> List[Constraint]:
    """Rows -> interned constraints of per-row kind (ctor re-normalizes,
    which is exact for the EQ divisibility-failure case)."""
    from repro.isl.affine import _intern_sorted_items

    out = []
    eq_flags = is_eq.tolist()
    for row, eq in zip(rows.tolist(), eq_flags):
        items = tuple(
            (name, value) for name, value in zip(names, row[:-1]) if value
        )
        expr = _intern_sorted_items(items, row[-1])
        out.append(Constraint(expr, EQ if eq else GE))
    return out


def eliminate(
    constraints: Sequence[Constraint], name: str
) -> Optional[List[Constraint]]:
    """One vectorized Fourier-Motzkin step for ``name``.

    Returns the eliminated system (bit-identical to the reference
    ``_eliminate``, including constraint order), or None when the
    system cannot be packed into int64 safely.
    """
    packed = pack_system(constraints)
    if packed is None:
        return None
    names, matrix, is_eq = packed
    if name not in names:
        # No constraint involves the dim: the reference path falls
        # through to an empty pair combination plus dedupe of `others`.
        from repro.isl.constraint import prune_parallel

        return prune_parallel(list(dict.fromkeys(constraints)))
    col = names.index(name)
    a = matrix[:, col]

    # Substitution fast path: first equality with a unit coefficient is
    # used for exact Gaussian elimination of the dim (reference returns
    # the substituted system directly, without dedupe or pruning).
    unit_eq = np.nonzero(is_eq & (np.abs(a) == 1))[0]
    if unit_eq.size:
        pivot = int(unit_eq[0])
        q = matrix[pivot]
        # new_row = row - (row[col] / q[col]) * q; q[col] is +-1 so the
        # quotient is row[col] * q[col].
        factor = a * a[pivot]
        out = matrix - factor[:, None] * q[None, :]
        keep = np.arange(matrix.shape[0]) != pivot
        return _materialize_mixed(out[keep], is_eq[keep], names)

    zero = a == 0
    pos_mask = (a > 0) | (is_eq & (a < 0))
    neg_mask = (a < 0) | (is_eq & (a > 0))
    sign = np.sign(a)
    positives = matrix[pos_mask] * np.where(a[pos_mask] > 0, 1, -1)[:, None]
    negatives = matrix[neg_mask] * np.where(a[neg_mask] < 0, 1, -1)[:, None]
    del sign

    check_fm_pairs(positives.shape[0], negatives.shape[0], name)
    combined = np.zeros((0, matrix.shape[1]), dtype=np.int64)
    if positives.shape[0] and negatives.shape[0]:
        ap = positives[:, col]  # > 0
        an = negatives[:, col]  # < 0
        # combined[p, n] = rest_p * (-a_n) + rest_n * a_p; using the full
        # rows is equivalent because the `col` column cancels exactly.
        combined = (
            positives[:, None, :] * (-an)[None, :, None]
            + negatives[None, :, :] * ap[:, None, None]
        ).reshape(-1, matrix.shape[1])
        combined = _normalize_ge_rows(combined)
        # Drop tautologies (all-zero coefficients, non-negative const);
        # constant contradictions are kept for emptiness detection.
        coeff_zero = ~np.any(combined[:, :-1], axis=1)
        tautology = coeff_zero & (combined[:, -1] >= 0)
        combined = combined[~tautology]
        # Parallel-prune in the matrix before materializing: the final
        # dict.fromkeys + prune_parallel pass would drop the same rows
        # anyway, so this changes nothing but the number of Python-level
        # constraint constructions.
        combined = _prune_parallel_rows(combined)

    from repro.isl.constraint import prune_parallel

    others = [c for c, z in zip(constraints, zero.tolist()) if z]
    result = others + _materialize_ge(combined, names)
    return prune_parallel(list(dict.fromkeys(result)))


def candidate_grid(ranges: Sequence[range]) -> Optional["np.ndarray"]:
    """Cartesian product of integer ranges as an ``N x D`` int64 matrix.

    Rows come out in C order -- identical to ``itertools.product`` over
    the same ranges, which is what keeps the vectorized point
    enumeration order-identical to the reference loop.  Returns None
    when a bound does not fit in int64.
    """
    try:
        axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in ranges]
    except OverflowError:
        return None
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def contains_batch(
    points: "np.ndarray",
    dims: Sequence[str],
    constraints: Sequence[Constraint],
) -> Optional["np.ndarray"]:
    """Vectorized membership: boolean mask over ``points`` rows.

    ``points`` is ``N x len(dims)`` int64 in ``dims`` column order.
    Returns None when the system cannot be packed (caller falls back).
    """
    packed = pack_system(constraints, dims)
    if packed is None:
        return None
    _, matrix, is_eq = packed
    if matrix.shape[0] == 0:
        return np.ones(points.shape[0], dtype=bool)
    if points.size:
        # Worst-case |row . coeffs + const| must stay inside int64.
        peak = int(np.abs(points).max())
        peak_coeff = int(np.abs(matrix[:, :-1]).max())
        peak_const = int(np.abs(matrix[:, -1]).max())
        if points.shape[1] * peak * peak_coeff + peak_const >= 1 << 62:
            return None
    values = points @ matrix[:, :-1].T + matrix[np.newaxis, :, -1]
    ok = np.where(is_eq[np.newaxis, :], values == 0, values >= 0)
    return ok.all(axis=1)
