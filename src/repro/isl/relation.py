"""Basic maps: affine relations between two named-dimension spaces.

isl's ``basic_map`` counterpart: a relation ``{ in -> out : constraints }``
over the disjoint union of input and output dims.  Supports the
operations the footprint analysis needs -- building from a function
(:class:`~repro.isl.maps.MultiAffineMap`), domain restriction, and
domain/range projection by Fourier-Motzkin.  The range of an access map
restricted to an iteration domain is an array *footprint* -- the basis
of the memory analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.maps import MultiAffineMap
from repro.isl.sets import BasicSet


class BasicMap:
    """An affine relation between an input and an output space."""

    __slots__ = ("in_dims", "out_dims", "wrapped")

    def __init__(
        self,
        in_dims: Sequence[str],
        out_dims: Sequence[str],
        constraints: Iterable[Constraint] = (),
    ):
        self.in_dims: Tuple[str, ...] = tuple(in_dims)
        self.out_dims: Tuple[str, ...] = tuple(out_dims)
        overlap = set(self.in_dims) & set(self.out_dims)
        if overlap:
            raise ValueError(f"in/out dims must be disjoint, both have {overlap}")
        self.wrapped = BasicSet(self.in_dims + self.out_dims, constraints)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_multi_affine(
        func: MultiAffineMap, out_dims: Sequence[str]
    ) -> "BasicMap":
        """The graph of an affine function: ``{ v -> f(v) }``."""
        if len(out_dims) != func.n_out:
            raise ValueError(
                f"need {func.n_out} output dims, got {len(out_dims)}"
            )
        constraints = [
            Constraint.eq(AffineExpr.var(out), expr)
            for out, expr in zip(out_dims, func.exprs)
        ]
        return BasicMap(func.in_dims, out_dims, constraints)

    # -- algebra ----------------------------------------------------------------

    def intersect_domain(self, domain: BasicSet) -> "BasicMap":
        """Restrict the relation's inputs to ``domain``."""
        if domain.dims != self.in_dims:
            raise ValueError(f"domain dims {domain.dims} != {self.in_dims}")
        result = BasicMap(self.in_dims, self.out_dims)
        result.wrapped = self.wrapped.with_constraints(domain.constraints)
        return result

    # -- images ---------------------------------------------------------------------

    def domain(self) -> BasicSet:
        """Inputs related to at least one output."""
        return self.wrapped.project_onto(self.in_dims)

    def range(self) -> BasicSet:
        """Outputs related to at least one input (the image)."""
        return self.wrapped.project_onto(self.out_dims)

    # -- queries -----------------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.wrapped.is_empty()

    def contains(self, inputs: Dict[str, int], outputs: Dict[str, int]) -> bool:
        point = dict(inputs)
        point.update(outputs)
        return self.wrapped.contains(point)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicMap):
            return NotImplemented
        return (
            self.in_dims == other.in_dims
            and self.out_dims == other.out_dims
            and self.wrapped == other.wrapped
        )

    def __hash__(self) -> int:
        return hash((self.in_dims, self.out_dims, self.wrapped))

    def __repr__(self):
        body = " and ".join(str(c) for c in self.wrapped.constraints) or "true"
        return (
            f"{{ [{', '.join(self.in_dims)}] -> "
            f"[{', '.join(self.out_dims)}] : {body} }}"
        )
