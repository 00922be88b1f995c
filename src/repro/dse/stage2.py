"""DSE stage 2: bottleneck-oriented code optimization (paper Section VI-B).

Stage 1 leaves every node with a loop order whose innermost free dim can
be pipelined.  Stage 2 explores parallelism: for a given *parallelism
degree* it splits loops into unrolled intra-tile parts (the paper's tile
sizes, e.g. ``[1, 32]``), pipelines the best free dim, completely
unrolls the intra-tile loops, and cyclically partitions arrays so the
unrolled copies hit distinct memory banks.

The degrees and bank caps stage 2 may try form one :class:`Space`; the
search walks it, frontier enrichment completes a grid inside it, and an
exhaustive enumeration of it is the search's exact-optimum oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dsl.function import Function
from repro.dsl.placeholder import PartitionScheme, Placeholder
from repro.dsl.schedule import (
    After,
    Directive,
    Interchange,
    Pipeline,
    Split,
    Unroll,
)
from repro.polyir.program import PolyProgram
from repro.dse.analysis import legal_order
from repro.dse.stage1 import Stage1Plan

MAX_FACTOR_PER_DIM = 64

# The banking fallback ladder: full banking first, then trade banks for
# operator sharing when the spatial design overflows the device.
BANK_CAPS = (128, 16, 8)


@dataclass(frozen=True)
class Space:
    """The stage-2 design space: every ``(parallelism, bank_cap)`` point.

    A group's members share one pipeline, hence one degree: a power of
    two from the group's ladder, which runs up to the smallest trip
    product of its members and at most ``max_parallelism``.  Every
    parallelism vector is banked under each of ``bank_caps``.
    """

    groups: Tuple[Tuple[str, ...], ...]  # ordered by their first node
    ladders: Tuple[Tuple[int, ...], ...]  # per group: 1, 2, 4, ...
    bank_caps: Tuple[int, ...] = BANK_CAPS

    @classmethod
    def build(
        cls, function: Function, groups: Iterable[Sequence[str]], max_parallelism: int
    ) -> "Space":
        """``function``'s space, ``groups`` stepping together (other nodes alone)."""
        trips = {c.name: math.prod(it.extent for it in c.iters) for c in function.computes}
        group_of = {name: (name,) for name in trips}
        for group in groups:
            group_of.update(dict.fromkeys(group, tuple(group)))
        ordered = tuple(dict.fromkeys(group_of.values()))
        caps = [min([max_parallelism] + [trips[m] for m in group]) for group in ordered]
        return cls(ordered, tuple(
            tuple(2 ** k for k in range(max(cap, 1).bit_length())) for cap in caps
        ))

    def group_of(self, node: str) -> Tuple[str, ...]:
        return next(group for group in self.groups if node in group)

    def step(
        self, parallelism: Dict[str, int], group: Tuple[str, ...]
    ) -> Optional[Dict[str, int]]:
        """``parallelism`` with ``group`` doubled; None past its ladder."""
        degree = parallelism[group[0]] * 2
        if degree > self.ladders[self.groups.index(group)][-1]:
            return None
        return {**parallelism, **dict.fromkeys(group, degree)}

    def points(self) -> Iterator[Tuple[Dict[str, int], int]]:
        """Every ``(parallelism, bank_cap)``, the caps of a vector consecutive."""
        for degrees in itertools.product(*self.ladders):
            parallelism = {
                member: degree
                for group, degree in zip(self.groups, degrees)
                for member in group
            }
            for bank_cap in self.bank_caps:
                yield parallelism, bank_cap


@dataclass
class NodeConfig:
    """Stage 2 configuration of one node at a given parallelism degree."""

    name: str
    pipeline_dim: str
    # (dim, factor) pairs innermost-first; factor == extent means the whole
    # dim is unrolled without splitting.
    unrolls: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def total_parallelism(self) -> int:
        total = 1
        for _, factor in self.unrolls:
            total *= factor
        return total

    def tile_vector(self, order: List[str]) -> List[int]:
        """The paper-style tile-size vector over the stage-1 loop order."""
        factors = dict(self.unrolls)
        return [factors.get(dim, 1) for dim in order]

    def fingerprint(self) -> tuple:
        """A stable structural fingerprint (hashable; order-sensitive)."""
        return (self.name, self.pipeline_dim, tuple(self.unrolls))

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeConfig):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()


def plan_node_config(plan: Stage1Plan, node: str, parallelism: int) -> NodeConfig:
    """Distribute a parallelism degree over a node's loops.

    The pipeline dim is the free dim with the largest extent (pipelining
    the longest dependence-free loop amortizes fill/drain best); the
    remaining dims absorb unroll factors innermost-first, each capped by
    its extent and :data:`MAX_FACTOR_PER_DIM`.
    """
    order = list(plan.orders[node])
    extents = plan.extents[node]
    deps = plan.deps_cache[node]
    prefix = plan.frozen.get(node, 0)
    movable = order[prefix:]

    free = [d for d in plan.free.get(node, []) if d in movable]
    if free:
        pipeline_dim = max(free, key=lambda d: extents.get(d, 1))
    else:
        pipeline_dim = order[-1]
    if not legal_order(deps, _candidate_order(order, pipeline_dim, [])):
        pipeline_dim = order[-1]

    config = NodeConfig(name=node, pipeline_dim=pipeline_dim)
    remaining = max(1, parallelism)
    moved: List[str] = []

    # Parallelism preference order: dependence-free dims first (their
    # unrolled copies are truly parallel), then a split of the pipeline
    # dim itself, and only then carried dims (whose copies form serial
    # chains -- useful for reductions, useless for stencil wavefronts).
    free_candidates = [d for d in reversed(movable) if d in free and d != pipeline_dim]
    carried_candidates = [d for d in reversed(movable) if d not in free and d != pipeline_dim]

    def try_unroll(dim: str, cap: int) -> None:
        nonlocal remaining
        if remaining <= 1:
            return
        extent = extents.get(dim, 1)
        factor = min(remaining, cap, MAX_FACTOR_PER_DIM)
        # Prefer even tiles, but accept a ragged split (guards handle the
        # remainder) rather than giving up on prime-ish extents.
        even = factor
        while even > 1 and extent % even:
            even -= 1
        if even >= max(2, factor // 2):
            factor = even
        if factor <= 1:
            return
        # Unrolled parts move innermost; reject dims whose move would
        # flip a dependence (e.g. a stencil's time loop).
        if dim != pipeline_dim:
            candidate = _candidate_order(order, pipeline_dim, [dim] + moved)
            if not legal_order(deps, candidate):
                return
            moved.insert(0, dim)
        config.unrolls.append((dim, factor))
        remaining //= factor

    for dim in free_candidates:
        try_unroll(dim, extents.get(dim, 1))
    if pipeline_dim in free:
        try_unroll(pipeline_dim, extents.get(pipeline_dim, 1) // 2)
    for dim in carried_candidates:
        try_unroll(dim, extents.get(dim, 1))

    config.unrolls.reverse()  # report outermost-first like the paper
    return config


def _candidate_order(order: List[str], pipeline_dim: str, moved: List[str]) -> List[str]:
    """The execution order a config produces (unsplit approximation)."""
    sequential = [d for d in order if d != pipeline_dim and d not in moved]
    return sequential + [pipeline_dim] + moved


@dataclass
class NodeDelta:
    """What one node's stage-2 config adds on top of the stage-1 program."""

    directives: List[Directive]
    pipeline_level: str
    order: List[str]          # final loop order, outermost first
    extents: Dict[str, int]   # trip count of every final loop dim
    # Copies each unrolled stage-1 loop dim makes: a split dim's factor,
    # a wholly unrolled dim's stage-1 extent.
    copies: Dict[str, int]


def node_delta(plan: Stage1Plan, config: NodeConfig) -> NodeDelta:
    """Stage-2 directives of one node, over the stage-1 program of ``plan``.

    The directives name only ``config.name``'s statement, so applying
    them to that statement alone gives the same statement as replaying
    them inside the whole installed schedule.
    """
    node = config.name
    directives: List[Directive] = []
    order = list(plan.orders[node])
    unrolled_parts: List[str] = []
    extents = dict(plan.extents[node])
    copies: Dict[str, int] = {}
    pipeline_level = config.pipeline_dim

    for dim, factor in config.unrolls:
        if dim != config.pipeline_dim and factor >= extents.get(dim, 1):
            # whole dim unrolled: no split needed
            unrolled_parts.append(dim)
            copies[dim] = extents.get(dim, 1)
        else:
            copies[dim] = factor
            outer, inner = f"{dim}_t", f"{dim}_u"
            directives.append(Split(node, dim, factor, outer, inner))
            order[order.index(dim)] = outer
            extent = extents.pop(dim)
            extents[outer] = -(-extent // factor)
            extents[inner] = factor
            unrolled_parts.append(inner)
            if dim == config.pipeline_dim:
                # the tile loop carries the pipeline; the chunk unrolls
                pipeline_level = outer

    sequential = [d for d in order if d not in unrolled_parts and d != pipeline_level]
    target = sequential + [pipeline_level] + unrolled_parts
    current = order_after_splits(order, unrolled_parts)
    directives.extend(interchanges(node, current, target))

    directives.append(Pipeline(node, pipeline_level, 1))
    for part in unrolled_parts:
        directives.append(Unroll(node, part, 0))
    return NodeDelta(directives, pipeline_level, target, extents, copies)


def order_after_splits(order: List[str], unrolled: List[str]) -> List[str]:
    """Loop order right after the split directives: each ``_u`` part in
    ``unrolled`` lands right after its ``_t`` part in ``order``."""
    result: List[str] = []
    for dim in order:
        result.append(dim)
        if dim.endswith("_t") and dim[:-2] + "_u" in unrolled:
            result.append(dim[:-2] + "_u")
    return result


def interchanges(node: str, current: List[str], target: List[str]) -> List[Interchange]:
    """Interchange directives converting ``current`` order into ``target``."""
    order = list(current)
    moves: List[Interchange] = []
    if set(order) != set(target):
        raise ValueError(f"{node}: cannot reorder {order} into {target}")
    for position, want in enumerate(target):
        at = order.index(want)
        if at != position:
            moves.append(Interchange(node, order[position], want))
            order[position], order[at] = order[at], order[position]
    return moves


def fusion_directives(plan: Stage1Plan, deltas: Dict[str, NodeDelta]) -> List[Directive]:
    """Fuse group members at the pipeline level when their shapes match.

    Fusion requires the pipeline dim at the same nesting level in both
    members *and* matching trip counts at every shared level -- fusing
    envelopes of different sizes would stall the pipeline with guards.
    """
    directives: List[Directive] = []
    for group in plan.fused_groups:
        members = [m for m in group if m in deltas]
        for name, current_name in zip(members, members[1:]):
            previous, current = deltas[name], deltas[current_name]
            prev_level = previous.order.index(previous.pipeline_level)
            cur_level = current.order.index(current.pipeline_level)
            if prev_level != cur_level:
                continue  # incompatible nesting; leave sequential
            prev_trips = [previous.extents.get(d) for d in previous.order[: prev_level + 1]]
            cur_trips = [current.extents.get(d) for d in current.order[: cur_level + 1]]
            if prev_trips != cur_trips:
                continue
            directives.append(
                After(current_name, name, previous.pipeline_level, structural=False)
            )
    return directives


Spreads = Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]


def unroll_spreads(program: PolyProgram) -> Spreads:
    """``{array: (shape, spreads)}``: per array dimension, the largest
    product of the extents of completely unrolled loop dims appearing in
    one index expression of a statement of the scheduled ``program``.

    This is everything :func:`derive_partitions` reads of a program; no
    bank cap applies yet, so one scheduled candidate computes it once
    for all of its caps.
    """
    return count_spreads(
        (
            stmt.index_dims(),
            {
                opt.level: stmt.loop_extent(opt.level) or 1
                for opt in stmt.hw_opts
                if opt.kind == "unroll"
            },
        )
        for stmt in program.statements
    )


def count_spreads(
    statements: Iterable[Tuple[List[Tuple[Placeholder, List[Tuple[str, ...]]]], Dict[str, int]]]
) -> Spreads:
    """The counting loop of :func:`unroll_spreads`, over each statement's
    ``index_dims()`` and the copies each unrolled loop dim makes.

    A DSE candidate passes its stage-1 statements with each node's
    :attr:`NodeDelta.copies`: where the stage-1 index reads a split dim,
    the rewritten one reads its tile loop and its unrolled part, whose
    extent is the factor.
    """
    spreads: Dict[str, Tuple[Tuple[int, ...], List[int]]] = {}
    for index_dims, copies in statements:
        for array, indices in index_dims:
            _, slots = spreads.setdefault(array.name, (array.shape, [1] * len(array.shape)))
            for dim, names in enumerate(indices):
                spread = 1
                for name in names:
                    if name in copies:
                        spread *= max(1, copies[name])
                slots[dim] = max(slots[dim], spread)
    return {name: (shape, tuple(slots)) for name, (shape, slots) in spreads.items()}


def derive_partitions(
    function: Function,
    max_banks: int = 128,
    spreads: Optional[Spreads] = None,
) -> Dict[str, Tuple[int, ...]]:
    """Cyclic partition factors making unrolled copies hit distinct banks.

    For each array dimension: the product of the extents of completely
    unrolled loop dims appearing in its index expression, capped by the
    dimension's extent and ``max_banks``.  ``spreads`` are the
    :func:`unroll_spreads` of the scheduled program (by default: the
    function's current schedule, replayed here) or the
    :func:`count_spreads` of a DSE candidate.
    """
    if spreads is None:
        spreads = unroll_spreads(PolyProgram(function).apply_schedule())
    return {
        name: tuple(
            max(1, min(spread, extent, max_banks)) for spread, extent in zip(values, shape)
        )
        for name, (shape, values) in spreads.items()
    }


def banked_partitions(
    partitions: Mapping[str, Optional[PartitionScheme]],
    banking: Dict[str, Tuple[int, ...]],
) -> Dict[str, Optional[PartitionScheme]]:
    """``partitions`` (a :meth:`Function.partitions` map) with a cyclic
    scheme for every array ``banking`` (:func:`derive_partitions`)
    spreads over more than one bank; the other arrays keep theirs."""
    banked = dict(partitions)
    for name, factors in banking.items():
        if any(f > 1 for f in factors):
            banked[name] = PartitionScheme(factors, "cyclic")
    return banked
