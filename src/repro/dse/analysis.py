"""Dependence re-analysis on transformed polyhedral statements.

Stage 1 of the DSE iteratively rechecks loop-carried dependences after
each transformation (paper Section VI-A).  The original analyzer works
on DSL computes; this helper runs the same integer-set engine on a
:class:`~repro.polyir.statement.PolyStatement` whose domain, loop order,
and accesses have already been rewritten.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.depgraph.analysis import (
    CarriedDependence,
    access_pairs,
    carried_dependences_generic,
)
from repro.depgraph.vectors import permute
from repro.polyir.statement import PolyStatement


def loop_extents(stmt: PolyStatement) -> Dict[str, int]:
    """Constant extent envelope per loop dim (1 where none is constant)."""
    return {dim: stmt.loop_extent(dim) or 1 for dim in stmt.loop_order}


def carried_for_statement(
    stmt: PolyStatement,
    kinds: tuple = ("RAW",),
    extents: Optional[Dict[str, int]] = None,
) -> List[CarriedDependence]:
    """Loop-carried dependences of a transformed statement.

    ``kinds`` selects which dependence classes to compute: RAW bounds
    pipelining; WAR/WAW additionally constrain loop reordering legality.
    ``extents`` are the statement's :func:`loop_extents`, when known.
    """
    dims = list(stmt.loop_order)
    domain = stmt.domain.project_onto(dims) if set(stmt.domain.dims) != set(dims) else stmt.domain
    domain = domain.reorder_dims(dims)

    pairs = access_pairs(stmt.dest, stmt.body.loads(), kinds)
    if extents is None:
        extents = loop_extents(stmt)
    return carried_dependences_generic(dims, domain, pairs, extents)


def relevel(
    stmt: PolyStatement,
    order: Sequence[str],
    extents: Dict[str, int],
    deps: List[CarriedDependence],
) -> Optional[Tuple[Dict[str, int], List[CarriedDependence]]]:
    """``(extents, deps)`` of ``stmt`` with its loops interchanged into
    ``order``, read off its own; None when they must be recomputed.

    A dim that one index reads alone and alike at source and sink of
    every self-dependence pair (conv's ``co, h, w``) is *pinned*: its
    step is 0 on every dependence.  When the interchange keeps the order
    of the other dims, each dependence is carried at the same dim by the
    same instance pairs, so only its level and direction move.
    """
    pinned = set(stmt.loop_order)
    for _, _, src, snk in access_pairs(stmt.dest, stmt.body.loads()):
        pinned &= {a.dims()[0] for a, b in zip(src, snk) if a == b and len(a.dims()) == 1}
    if [d for d in stmt.loop_order if d not in pinned] != [d for d in order if d not in pinned]:
        return None
    dims = tuple(order)
    moved = []
    for dep in deps:
        distance = permute(dep.distance, dims)
        moved.append(CarriedDependence(
            dep.array, dep.kind, dims.index(dep.carried_dim), dims,
            distance, distance.direction(), dep.min_distance,
        ))
    return {dim: extents[dim] for dim in dims}, moved


def legal_order(deps: List[CarriedDependence], order: List[str]) -> bool:
    """Whether every dependence stays lexicographically positive.

    Entries at a dependence's carried dim are known >= 1 even when not
    constant; any other unknown entry is treated as possibly negative.
    """
    for dep in deps:
        legal = False
        for dim in order:
            if dim not in dep.dims:
                continue
            entry = dep.distance[dim]
            if entry is None:
                if dim == dep.carried_dim:
                    legal = True
                break  # unknown sign: cannot rely on later dims
            if entry > 0:
                legal = True
                break
            if entry < 0:
                break
            # entry == 0: look at the next dim
        if not legal:
            return False
    return True
