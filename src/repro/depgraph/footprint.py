"""Array footprint analysis: which elements a compute actually touches.

The footprint of an access is the *image* of the iteration domain under
the access function, summarized as a box.  The domain is a box and the
indices are affine, so interval arithmetic gives each image bound
exactly: a term ``c * d`` over ``d in [lo, hi]`` spans ``[min(c*lo,
c*hi), max(c*lo, c*hi)]`` and the terms are independent.  Footprints
drive on-chip buffer sizing: a tile that touches ``48 x 6`` elements of
a ``4096²`` array needs a 288-element local buffer, not the whole
array.  The summary feeds the BRAM column of the synthesis report for
locally-bufferable workloads, and the dataflow stream-window check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dsl.compute import Compute


@dataclass(frozen=True)
class ArrayFootprint:
    """Touched region of one array as a box (stride structure is lost)."""

    array: str
    box: Tuple[Tuple[int, int], ...]         # inclusive per-dim bounds

    @property
    def box_elements(self) -> int:
        total = 1
        for lo, hi in self.box:
            total *= max(0, hi - lo + 1)
        return total


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


def compute_footprints(compute: Compute) -> Dict[str, ArrayFootprint]:
    """Per-array union-box footprints of all accesses of a compute."""
    results: Dict[str, ArrayFootprint] = {}
    for access in compute.loads() + [compute.store()]:
        fp = access_footprint(compute, access)
        previous = results.get(access.array_name)
        if previous is None:
            results[access.array_name] = fp
        else:
            merged = tuple(
                (min(a[0], b[0]), max(a[1], b[1]))
                for a, b in zip(previous.box, fp.box)
            )
            results[access.array_name] = ArrayFootprint(access.array_name, merged)
    return results


def buffer_bits(compute: Compute) -> Dict[str, int]:
    """On-chip bits needed to buffer each array's touched box locally."""
    sizes: Dict[str, int] = {}
    for name, fp in compute_footprints(compute).items():
        placeholder = next(
            p for p in compute.arrays() if p.name == name
        )
        sizes[name] = fp.box_elements * placeholder.dtype.bits
    return sizes
