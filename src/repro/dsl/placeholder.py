"""Array placeholders for the POM DSL.

A placeholder names a multi-dimensional array with a shape and a data
type (paper Fig. 4).  Subscripting (``A[i, j]``) or calling (``A(i, j)``)
produces an :class:`~repro.dsl.expr.Access`.  The ``partition``
scheduling primitive (Table II) records an array-partitioning scheme
that the hardware-optimization layer turns into
``#pragma HLS array_partition`` directives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dsl import dtypes
from repro.dsl.expr import Access


PARTITION_KINDS = ("cyclic", "block", "complete")


@dataclass(frozen=True)
class PartitionScheme:
    """Array partitioning: one factor per dimension plus a kind."""

    factors: Tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ValueError(
                f"partition kind must be one of {PARTITION_KINDS}, got {self.kind!r}"
            )
        if any(f < 1 for f in self.factors):
            raise ValueError(f"partition factors must be >= 1, got {self.factors}")

    @property
    def total_banks(self) -> int:
        total = 1
        for factor in self.factors:
            total *= factor
        return total


class Placeholder:
    """A named array with shape, dtype, and an optional partition scheme."""

    def __init__(self, name: str, shape: Sequence[int], dtype: dtypes.DType = dtypes.float32):
        if not name or not name.isidentifier():
            raise ValueError(f"invalid placeholder name {name!r}")
        shape = tuple(int(s) for s in shape)
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(f"invalid shape {shape} for placeholder {name!r}")
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.partition_scheme: Optional[PartitionScheme] = None

    # -- DSL access syntax ------------------------------------------------

    def __getitem__(self, indices) -> Access:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return Access(self, list(indices))

    def __call__(self, *indices) -> Access:
        return Access(self, list(indices))

    # -- scheduling primitive ----------------------------------------------

    def partition(self, factors: Sequence[int], kind: str = "cyclic") -> "Placeholder":
        """Record an array-partitioning scheme (paper Table II).

        ``A.partition({4, 4}, "cyclic")`` in the paper becomes
        ``A.partition([4, 4], "cyclic")`` here; one factor per dimension.
        """
        factors = tuple(int(f) for f in factors)
        if len(factors) != len(self.shape):
            raise ValueError(
                f"{self.name}: need {len(self.shape)} partition factors, got {len(factors)}"
            )
        for factor, extent in zip(factors, self.shape):
            if factor > extent:
                raise ValueError(
                    f"{self.name}: partition factor {factor} exceeds extent {extent}"
                )
        self.partition_scheme = PartitionScheme(factors, kind)
        return self

    # -- sizing helpers ------------------------------------------------------

    @property
    def n_elements(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def allocate(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """A fresh numpy buffer for the functional simulator."""
        if rng is None:
            return np.zeros(self.shape, dtype=self.dtype.np_dtype)
        if isinstance(self.dtype, dtypes.FixedType):
            data = rng.standard_normal(self.shape)
            step = 2.0 ** -self.dtype.frac_bits
            data = np.round(data / step) * step
        elif self.dtype.is_float:
            data = rng.standard_normal(self.shape)
        else:
            data = rng.integers(0, 8, size=self.shape)
        return data.astype(self.dtype.np_dtype)

    def __repr__(self):
        return f"placeholder({self.name!r}, {self.shape}, {self.dtype})"


def placeholder(name: str, shape: Sequence[int], dtype: dtypes.DType = dtypes.float32) -> Placeholder:
    """Declare an array placeholder (paper spelling, Fig. 4)."""
    return Placeholder(name, shape, dtype)
