"""Fine-grained loop-carried dependence analysis (paper Section V-A).

For each compute, the analyzer builds the exact dependence relation
between statement instances as an integer set over source and sink
iteration vectors, splits it by carrying loop level, and extracts
distance/direction vectors plus the minimum carried distance -- the
quantity that bounds pipeline initiation intervals.  Reduction
dimensions (iteration dims absent from the destination access pattern,
Fig. 8-3) are identified as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import trace as _trace
from repro.dsl.compute import Compute
from repro.dsl.expr import Access
from repro.isl import intern as _intern
from repro.isl.affine import AffineExpr
from repro.isl.constraint import EQ, Constraint
from repro.isl.sets import BasicSet
from repro.depgraph.vectors import DirectionVector, DistanceVector

_SINK_SUFFIX = "__snk"

RAW, WAR, WAW = "RAW", "WAR", "WAW"


@dataclass(frozen=True)
class CarriedDependence:
    """One loop-carried dependence of a compute (or a fused pair)."""

    array: str
    kind: str
    level: int
    dims: Tuple[str, ...]
    distance: DistanceVector
    direction: DirectionVector
    min_distance: Optional[int]

    @property
    def carried_dim(self) -> str:
        return self.dims[self.level]

    def __str__(self):
        return (
            f"{self.kind}[{self.array}] carried at {self.carried_dim} "
            f"d={self.distance} min={self.min_distance}"
        )


@dataclass
class NodeAnalysis:
    """Dependence attributes attached to a dependence-graph node."""

    compute: Compute
    reduction_dims: List[str] = field(default_factory=list)
    carried: List[CarriedDependence] = field(default_factory=list)


def domain_of(compute: Compute, dims: Optional[Sequence[str]] = None) -> BasicSet:
    """The iteration domain of a compute as a BasicSet."""
    bounds = compute.domain_bounds()
    order = list(dims) if dims is not None else compute.iter_names
    return BasicSet.box({d: bounds[d] for d in order}, order=order)


def _sink_name(dim: str) -> str:
    return dim + _SINK_SUFFIX


def _step(dim: str) -> AffineExpr:
    """``dim' - dim``: how far the sink instance is ahead of the source."""
    return AffineExpr.var(_sink_name(dim)) - AffineExpr.var(dim)


def _access_equalities(
    dims: Sequence[str], src_idx: Sequence[AffineExpr], snk_idx: Sequence[AffineExpr]
) -> List[Constraint]:
    """``src(v) == snk(v')``, one equality per index."""
    sink = {d: _sink_name(d) for d in dims}
    return [Constraint.eq(s, k.rename(sink)) for s, k in zip(src_idx, snk_idx)]


def _pair_relation(
    dims: Sequence[str], domain: BasicSet, equalities: Sequence[Constraint]
) -> BasicSet:
    """Instances ``(v, v')`` of ``domain`` satisfying the access ``equalities``."""
    sink = {d: _sink_name(d) for d in dims}
    if domain.dims != tuple(dims):
        domain = domain.reorder_dims(dims)
    return domain.product(domain.rename_dims(sink)).with_constraints(equalities)


def _carried_at(relation: BasicSet, dims: Sequence[str], level: int) -> BasicSet:
    """``relation`` restricted to pairs carried at ``level``: equality on
    all dims above it and strict lexicographic precedence at it."""
    above = [Constraint.eq(_step(d), 0) for d in dims[:level]]
    return relation.with_constraints(above + [Constraint.ge(_step(dims[level]), 1)])


def _pinned(equalities: Sequence[Constraint]) -> Dict[str, int]:
    """``{dim: c}`` for each access equality ``dim' - dim = c`` (a uniform
    access pair).  Such an entry is ``c`` at any pair of the relation;
    the equality leaves both cuts of ``_constant_entry`` rationally
    empty, which Fourier-Motzkin always proves.  Only the access
    equalities can have this form: a domain constraint names source or
    sink dims, never both."""
    pinned = {}
    for constraint in equalities:
        coeffs = constraint.expr._coeffs
        if constraint.is_equality() and len(coeffs) == 2:
            for name, coeff in coeffs.items():
                dim = name[: -len(_SINK_SUFFIX)]
                if name.endswith(_SINK_SUFFIX) and abs(coeff) == 1 and coeffs.get(dim) == -coeff:
                    pinned[dim] = -coeff * constraint.expr.constant
    return pinned


def _constant_entry(
    relation: BasicSet, dim: str, candidate: Optional[int], point: Dict[str, int]
) -> Optional[int]:
    """``candidate`` when ``dim' - dim`` takes no other value over the relation.

    ``point`` is a pair of the relation at which the step is ``candidate``.
    """
    if candidate is None:
        return None
    step = _step(dim)
    # A neighbour of ``point`` one step off on either side is an integer
    # point in one of the cuts, which Fourier-Motzkin could not refute.
    if not _intern._REFERENCE:
        for name in (_sink_name(dim), dim):
            for delta in (1, -1):
                if relation.contains({**point, name: point[name] + delta}):
                    return None
    above = relation.with_constraints([Constraint.ge(step, candidate + 1)])
    below = relation.with_constraints([Constraint.le(step, candidate - 1)])
    if above.is_empty() and below.is_empty():
        return candidate
    return None


def _min_distance(relation: BasicSet, dim: str, extent: int) -> Optional[int]:
    """Minimum of ``dim' - dim`` over the relation (>= 1 when carried)."""
    step = _step(dim)
    lo, hi = 1, extent
    if relation.with_constraints([Constraint.le(step, hi)]).is_empty():
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if relation.with_constraints([Constraint.le(step, mid)]).is_empty():
            lo = mid + 1
        else:
            hi = mid
    return lo


_Pair = Tuple[str, str, Sequence[AffineExpr], Sequence[AffineExpr]]


def access_pairs(
    dest: Access, loads: Sequence[Access], kinds: Sequence[str] = (RAW, WAR, WAW)
) -> List[_Pair]:
    """``(kind, array, src indices, snk indices)`` self-dependence pairs of
    a statement writing ``dest``: RAW and WAR against each distinct load
    of the written array, then WAW."""
    store = dest.affine_indices()
    pairs: List[_Pair] = []
    seen = set()
    for load in loads:
        key = tuple(map(str, load.indices))
        if load.array_name != dest.array_name or key in seen:
            continue
        seen.add(key)
        if RAW in kinds:
            pairs.append((RAW, dest.array_name, store, load.affine_indices()))
        if WAR in kinds:
            pairs.append((WAR, dest.array_name, load.affine_indices(), store))
    if WAW in kinds:
        pairs.append((WAW, dest.array_name, store, store))
    return pairs


def _box_spans(domain: BasicSet) -> Dict[str, int]:
    """``hi - lo`` of each dim that single-dim unit constraints of
    ``domain`` bound on both sides: every point of the domain, rational
    or integer, has ``lo <= d <= hi``."""
    lows: Dict[str, int] = {}
    highs: Dict[str, int] = {}
    for constraint in domain.constraints:
        items = constraint.expr._items
        if len(items) != 1 or items[0][1] not in (1, -1):
            continue
        ((name, a),) = items
        value = -constraint.expr._const * a  # a*d + const >= 0 (or == 0)
        if a > 0 or constraint.kind == EQ:
            lows[name] = max(lows.get(name, value), value)
        if a < 0 or constraint.kind == EQ:
            highs[name] = min(highs.get(name, value), value)
    return {name: highs[name] - lows[name] for name in lows.keys() & highs.keys()}


def _open_levels(
    dims: Tuple[str, ...], src_idx: Sequence[AffineExpr],
    snk_idx: Sequence[AffineExpr], spans: Dict[str, int],
) -> List[int]:
    """The levels the access equalities alone do not show empty.

    An index whose source and sink have the same linear part ``f``
    states ``f(s) = r`` for the steps ``s = v' - v``, ``r`` the
    difference of the two constants.  At level ``L`` the steps above
    are 0, ``s_L >= 1``, and each step below is at most its dim's span
    (``_box_spans``) in size.  With ``c`` the coefficient of the level's
    dim and ``B`` the sum of ``|c_e| * span_e`` over the dims below it,
    the level is empty when ``c == 0`` and ``|r| > B``, or ``c != 0``
    and ``sign(c) * r + B < |c|``.  These are rational contradictions,
    which Fourier-Motzkin always proves, so a level skipped here is one
    the relation would have shown empty.  Two cases: a uniform pair
    ``d + a`` / ``d + b`` (the step pinned to ``a - b``) needs no span;
    a store re-read at its own tiled index ``4*i_t + i_u`` is settled by
    the span 3 of ``i_u``.
    """
    at = {dim: level for level, dim in enumerate(dims)}
    rows = []
    for src, snk in zip(src_idx, snk_idx):
        coeffs = src._coeffs
        if coeffs == snk._coeffs and all(name in at for name in coeffs):
            rows.append((
                [(at[name], coeff) for name, coeff in coeffs.items()],
                src._const - snk._const,
            ))
    levels = []
    for level in range(len(dims)):
        for terms, r in rows:
            c, bound = 0, 0
            for term_level, coeff in terms:
                if term_level == level:
                    c = coeff
                elif term_level > level:
                    bound += abs(coeff) * spans.get(dims[term_level], math.inf)
            if (abs(r) > bound) if c == 0 else ((r if c > 0 else -r) + bound < abs(c)):
                break
        else:
            levels.append(level)
    return levels


def _carried_levels(
    dims: Tuple[str, ...], domain: BasicSet, src_idx: Sequence[AffineExpr],
    snk_idx: Sequence[AffineExpr], extents: Dict[str, int],
    spans: Optional[Dict[str, int]],
    origin: Callable[[], Optional[Dict[str, int]]],
) -> List[Tuple[int, DistanceVector, DirectionVector, Optional[int]]]:
    """``(level, distance, direction, min distance)`` of every level that
    carries ``src(v) == snk(v')``.

    Levels the access equalities show empty (``_open_levels``, with the
    domain's box ``spans``) are skipped before any relation is built;
    when no level is left, neither the equalities nor the pair relation
    nor the witness origin is (``spans`` is None, and nothing is skipped,
    under ``REPRO_ISL_REFERENCE=1``).  A level is next tried on the
    witness pair ``(origin, origin + e)``, one step apart at the level,
    with ``origin()`` a point of ``domain`` (or None): a pair in the
    relation shows it non-empty without Fourier-Motzkin.  Any other
    level is tested for emptiness and, when non-empty, sampled once.
    Each distance entry is constant exactly when the relation is empty
    on both sides of the value at that point.
    """
    levels = range(len(dims))
    if spans is not None:
        levels = _open_levels(dims, src_idx, snk_idx, spans)
        if len(levels) < len(dims):
            _trace.count("depgraph.equalities", len(dims) - len(levels))
        if not levels:
            return []
    equalities = _access_equalities(dims, src_idx, snk_idx)
    pinned = _pinned(equalities)
    rows = []
    pair_relation = _pair_relation(dims, domain, equalities)
    anchor = origin()
    same = None if anchor is None else {**anchor, **{_sink_name(d): anchor[d] for d in dims}}
    for level in levels:
        carried = dims[level]
        relation = _carried_at(pair_relation, dims, level)
        point = None if same is None else {**same, _sink_name(carried): same[carried] + 1}
        if point is not None and relation.contains(point):
            _trace.count("depgraph.witnesses")
        elif relation.is_empty():
            continue
        else:
            _trace.count("depgraph.samples")
            point = relation.sample()
        if point is None:  # rational points only: nothing is known
            steps = [None] * len(dims)
        else:
            steps = [point[_sink_name(d)] - point[d] for d in dims]
        fixed = set(pinned).union(dims[:level])  # + the level's own equalities
        distance = DistanceVector(dims, tuple(
            s if d in fixed else _constant_entry(relation, d, s, point)
            for d, s in zip(dims, steps)
        ))
        # A pair one step apart is the minimum: every probe of the
        # search would contain that (integer) point.
        min_distance = 1 if steps[level] == 1 else _min_distance(
            relation, carried, extents.get(carried, 1)
        )
        rows.append((level, distance, distance.direction(), min_distance))
    return rows


def _carried(
    dims: Sequence[str], domain: BasicSet, pairs: Sequence[_Pair], extents: Dict[str, int]
) -> List[CarriedDependence]:
    """The one engine: split each pair's relation by carrying level.

    The relation depends on the two index lists only, so each distinct
    ``(src, snk)`` is solved once per call and its rows are fanned out
    per kind and array: an accumulating statement's RAW, WAR and WAW
    pairs are one relation.  One point of the domain, sampled on first
    use, anchors every level's witness pair (none under
    ``REPRO_ISL_REFERENCE=1``).  Private so that ``analyze_compute`` shares
    it without counting as a call of the public entry point, which the
    benchmark times.
    """
    dims = tuple(dims)
    results: List[CarriedDependence] = []
    solved: Dict[tuple, list] = {}
    spans = None if _intern._REFERENCE else _box_spans(domain)
    sampled: List[Optional[Dict[str, int]]] = []

    def origin() -> Optional[Dict[str, int]]:
        if not sampled:
            sampled.append(None if _intern._REFERENCE else domain.sample())
        return sampled[0]

    args = {"dims": len(dims), "pairs": len(pairs)} if _trace.enabled() else None
    with _trace.span("depgraph.carried", "depgraph", args):
        for kind, array, src_idx, snk_idx in pairs:
            key = (tuple(src_idx), tuple(snk_idx))
            rows = solved.get(key)
            if rows is None:
                rows = solved[key] = _carried_levels(
                    dims, domain, src_idx, snk_idx, extents, spans, origin
                )
            results.extend(
                CarriedDependence(array, kind, level, dims, distance, direction, min_distance)
                for level, distance, direction, min_distance in rows
            )
        _trace.count("depgraph.relations", len(results))
        if args is not None:
            args["relations"] = len(results)
    return results


def carried_dependences_generic(
    dims: Sequence[str], domain: BasicSet, pairs: Sequence[_Pair], extents: Dict[str, int]
) -> List[CarriedDependence]:
    """Carried dependences for arbitrary affine accesses over ``dims``.

    ``pairs`` are ``(kind, array, src_indices, snk_indices)`` with index
    expressions over ``dims``.  This is the engine behind both the
    DSL-level analyzer and the post-transformation analysis the HLS
    estimator runs on the affine dialect (where loop structure no longer
    matches the original computes).
    """
    return _carried(dims, domain, pairs, extents)


def analyze_compute(compute: Compute) -> NodeAnalysis:
    """Full fine-grained analysis of one compute node."""
    analysis = NodeAnalysis(compute=compute)
    dims = compute.iter_names

    # Reduction dims: iteration dims absent from the destination pattern.
    dest_dims = set()
    for index in compute.store().affine_indices():
        dest_dims.update(index.dims())
    analysis.reduction_dims = [d for d in dims if d not in dest_dims]

    extents = {d: hi - lo + 1 for d, (lo, hi) in compute.domain_bounds().items()}
    pairs = access_pairs(compute.store(), compute.loads())
    analysis.carried = _carried(dims, domain_of(compute), pairs, extents)
    return analysis


def cross_offsets(producer: Compute, consumer: Compute) -> Dict[str, Optional[Tuple[int, ...]]]:
    """Per-shared-array alignment between a producer's store and consumer loads.

    Returns, for each array the producer writes and the consumer reads,
    the constant index offset vector when both accesses are translations
    of a shared iterator pattern (a necessary condition for legal
    fusion), or ``None`` when the accesses are not aligned.
    """
    result: Dict[str, Optional[Tuple[int, ...]]] = {}
    store = producer.store()
    for load in consumer.loads():
        if load.array_name != store.array_name:
            continue
        offsets: List[int] = []
        aligned = True
        for sidx, lidx in zip(store.affine_indices(), load.affine_indices()):
            diff = lidx - sidx
            if diff.is_constant():
                offsets.append(diff.constant)
            else:
                aligned = False
                break
        key = store.array_name
        value = tuple(offsets) if aligned else None
        if key in result and result[key] != value:
            result[key] = None  # conflicting access patterns
        else:
            result.setdefault(key, value)
    return result
