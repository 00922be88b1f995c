"""Distance and direction vectors (paper Fig. 1).

A *distance vector* entry is the (constant) difference between sink and
source iteration coordinates along one loop dimension, or ``None`` when
the difference is not constant across the dependence relation (rendered
``*``).  A *direction vector* entry is ``<``, ``=``, ``>`` -- or ``*``
when several signs occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

LT, EQ, GT, ANY = "<", "=", ">", "*"


@dataclass(frozen=True)
class DistanceVector:
    """Per-dimension sink-minus-source distances (None = non-constant)."""

    dims: Tuple[str, ...]
    entries: Tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.dims) != len(self.entries):
            raise ValueError("dims and entries must have equal length")

    def __getitem__(self, dim: str) -> Optional[int]:
        return self.entries[self.dims.index(dim)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def direction(self) -> "DirectionVector":
        signs = []
        for entry in self.entries:
            if entry is None:
                signs.append(ANY)
            elif entry > 0:
                signs.append(LT)
            elif entry < 0:
                signs.append(GT)
            else:
                signs.append(EQ)
        return DirectionVector(self.dims, tuple(signs))

    def __str__(self):
        body = ", ".join("*" if e is None else str(e) for e in self.entries)
        return f"({body})"


@dataclass(frozen=True)
class DirectionVector:
    """Per-dimension dependence directions over named loop dims."""

    dims: Tuple[str, ...]
    entries: Tuple[str, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.entries):
            raise ValueError("dims and entries must have equal length")
        for entry in self.entries:
            if entry not in (LT, EQ, GT, ANY):
                raise ValueError(f"invalid direction {entry!r}")

    def __getitem__(self, dim: str) -> str:
        return self.entries[self.dims.index(dim)]

    def __str__(self):
        return f"({', '.join(self.entries)})"


def permute(vector: DistanceVector, new_order: Sequence[str]) -> DistanceVector:
    """The distance vector after reordering loop dims (e.g. interchange)."""
    entries = tuple(vector[d] for d in new_order)
    return DistanceVector(tuple(new_order), entries)
