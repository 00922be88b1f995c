"""Vectorized (numpy) point kernels for the integer-set substrate.

A constraint system over dims ``(d_0, ..., d_{D-1})`` packs into an
``n x (D+1)`` int64 matrix: row ``i`` holds the coefficients of
constraint ``i`` in column order, with the constant term in the last
column; a parallel boolean vector marks equality rows.  On that layout
membership of a whole grid of candidate points is one matrix product.
:meth:`repro.isl.sets.BasicSet.points` and ``count_points`` test their
candidate box this way; the estimator's bank-conflict enumeration uses
the grid alone.

Every function here gives the same answer, in the same order, as the
pure-Python loop it replaces, so ``REPRO_ISL_REFERENCE=1`` serves as a
differential oracle rather than a behaviour switch.

Coefficients beyond ``2**30`` in absolute value are not packed;
packing then returns ``None`` and callers fall back to the exact
big-integer path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.isl.constraint import EQ, Constraint

#: Largest |coefficient| or constant packed into int64 matrices.  It
#: keeps every entry far inside int64, so taking a row's magnitude never
#: overflows and :func:`contains_batch` can bound its dot products.
COEFF_LIMIT = 1 << 30


def pack_system(
    constraints: Sequence[Constraint], dims: Sequence[str]
) -> Optional[Tuple["np.ndarray", "np.ndarray"]]:
    """Pack constraints into ``(matrix, is_eq)`` or None on overflow.

    ``matrix`` is ``n x (len(dims)+1)`` int64, columns in ``dims`` order
    with the constant last.
    """
    index = {name: i for i, name in enumerate(dims)}
    width = len(dims) + 1
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
    except KeyError:
        # A dim not in the caller-supplied column order (caller bug; be
        # conservative).
        return None
    return matrix, is_eq


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
    matrix, is_eq = packed
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
