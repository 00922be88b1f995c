"""Array footprint analysis: which elements a compute actually touches.

The footprint of an access is the *image* of the iteration domain under
the access relation -- computed exactly with
:class:`~repro.isl.relation.BasicMap`.  Footprints drive on-chip buffer
sizing: a tile that touches ``48 x 6`` elements of a ``4096²`` array
needs a 288-element local buffer, not the whole array.  The summary
feeds the BRAM column of the synthesis report for locally-bufferable
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dsl.compute import Compute
from repro.depgraph.analysis import domain_of
from repro.isl.relation import BasicMap
from repro.isl.sets import BasicSet

_OUT_PREFIX = "e"


@dataclass(frozen=True)
class ArrayFootprint:
    """Touched region of one array: the element set and its box summary.

    ``footprint`` is the projected element set (bounds exact; stride
    structure is lost to the rational shadow).
    """

    array: str
    footprint: BasicSet                      # over element dims e0, e1, ...
    box: Tuple[Tuple[int, int], ...]         # inclusive per-dim bounds

    @property
    def box_elements(self) -> int:
        total = 1
        for lo, hi in self.box:
            total *= max(0, hi - lo + 1)
        return total


def access_footprint(compute: Compute, access) -> ArrayFootprint:
    """The footprint of one access over the compute's full domain."""
    dims = compute.iter_names
    out_dims = [f"{_OUT_PREFIX}{k}" for k in range(len(access.placeholder.shape))]
    relation = BasicMap.from_multi_affine(access.access_map(dims), out_dims)
    restricted = relation.intersect_domain(domain_of(compute))
    image = restricted.range()
    box = []
    for name in out_dims:
        lo, hi = image.constant_bounds(name)
        if lo is None or hi is None:
            raise ValueError(
                f"{compute.name}: access to {access.array_name} has an "
                f"unbounded footprint dimension {name}"
            )
        box.append((lo, hi))
    return ArrayFootprint(access.array_name, image, tuple(box))


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
            results[access.array_name] = ArrayFootprint(
                access.array_name, previous.footprint, merged
            )
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
