"""Array footprint analysis: which elements a compute actually touches.

The footprint of an access is the *image* of the iteration domain under
the access function, summarized as a box.  The domain is a box and the
indices are affine, so interval arithmetic gives each image bound
exactly: a term ``c * d`` over ``d in [lo, hi]`` spans ``[min(c*lo,
c*hi), max(c*lo, c*hi)]`` and the terms are independent.  Footprints
drive on-chip buffer sizing: a tile that touches ``48 x 6`` elements of
a ``4096²`` array needs a 288-element local buffer, not the whole
array.  The box feeds the dataflow stream-window check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dsl.compute import Compute


@dataclass(frozen=True)
class ArrayFootprint:
    """Touched region of one array as a box (stride structure is lost)."""

    array: str
    box: Tuple[Tuple[int, int], ...]         # inclusive per-dim bounds


def access_footprint(compute: Compute, access) -> ArrayFootprint:
    """The footprint of one access over the compute's full domain."""
    bounds = compute.domain_bounds()
    if any(lo > hi for lo, hi in bounds.values()):
        raise ValueError(f"{compute.name}: empty iteration domain {bounds}")
    box = []
    for index in access.affine_indices():
        lo = hi = index.constant
        for name, coeff in index.coeffs.items():
            ends = (coeff * bounds[name][0], coeff * bounds[name][1])
            lo, hi = lo + min(ends), hi + max(ends)
        box.append((lo, hi))
    return ArrayFootprint(access.array_name, tuple(box))
