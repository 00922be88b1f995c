"""DSE stage 1: dependence-aware code transformation (paper Section VI-A).

For every node of the dependence graph, iteratively recheck loop-carried
dependences and restructure until some loop dimension is free of carried
dependences (so stage 2 can pipeline over it):

* a node whose innermost position already hosts a free dim is left alone;
* a node with free dims in the wrong place gets *loop interchange* --
  carried dims move outward, free dims inward;
* a node with no free dim at all (Seidel-style stencils) gets *loop
  skewing* of its two innermost dims, which rotates the dependence cone
  so the inner dim of the wavefront becomes free, then an interchange;
* finally, nodes that can legally share a pipeline are *conservatively
  fused* (the split-interchange-merge of paper Fig. 10).

The stage emits plain scheduling directives, so its output composes with
user-specified primitives and with stage 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.depgraph.analysis import cross_offsets
from repro.depgraph.graph import DependenceGraph
from repro.dsl.function import Function
from repro.dsl.schedule import After, Directive, Interchange, Skew
from repro.polyir.program import PolyProgram
from repro.dse.analysis import carried_for_statement, loop_extents, relevel

MAX_ITERATIONS = 4
_KINDS = ("RAW", "WAR", "WAW")


@dataclass
class Stage1Plan:
    """Stage 1 output: restructuring directives plus per-node facts."""

    directives: List[Directive] = field(default_factory=list)
    # Final loop order per node with carried dims first, free dims last.
    orders: Dict[str, List[str]] = field(default_factory=dict)
    # Dims known to be free of carried RAW deps after restructuring.
    free: Dict[str, List[str]] = field(default_factory=dict)
    skewed: Dict[str, bool] = field(default_factory=dict)
    fused_groups: List[List[str]] = field(default_factory=list)
    # Number of leading loop levels frozen by structural after/fuse
    # (shared loops carry the algorithm's interleaving and must survive).
    frozen: Dict[str, int] = field(default_factory=dict)
    # Full (RAW/WAR/WAW) dependence sets per node, filled by stage 1
    # (re-leveled across a final interchange where ``relevel`` allows);
    # stage 2 consults these on every parallelism trial.
    deps_cache: Dict[str, list] = field(default_factory=dict)
    # Constant extent envelope per loop dim of each node's final
    # statement (``loop_extent(dim) or 1``), read by fusion and stage 2.
    extents: Dict[str, Dict[str, int]] = field(default_factory=dict)


def structural_frozen_prefixes(function: Function) -> Dict[str, int]:
    """Loop levels locked by the user's structural after/fuse directives."""
    frozen: Dict[str, int] = {}
    for directive in function.structural_directives():
        if directive.level is None:
            continue
        producer = function.get_compute(directive.other)
        try:
            position = producer.iter_names.index(directive.level)
        except ValueError:
            continue
        for name in (directive.other, directive.compute_name):
            frozen[name] = max(frozen.get(name, 0), position + 1)
    return frozen


def plan_stage1(function: Function, graph: Optional[DependenceGraph] = None) -> Stage1Plan:
    """Compute the dependence-aware restructuring for a function."""
    plan = Stage1Plan()
    plan.frozen = structural_frozen_prefixes(function)
    program = PolyProgram(function)

    for stmt in program.statements:
        prefix = plan.frozen.get(stmt.name, 0)
        directives, analysis = _restructure_node(program, stmt.name, prefix)
        plan.directives.extend(directives)
        final = program.statement(stmt.name)
        plan.orders[stmt.name] = list(final.loop_order)
        # The final statement is the one stage 2 plans over (replaying
        # the directives rebuilds it exactly).  Its analysis, for every
        # kind, is the restructuring's last one, re-leveled when a move
        # followed, unless the move leaves that to a fresh analysis.
        if analysis is None:
            extents = loop_extents(final)
            analysis = extents, carried_for_statement(final, _KINDS, extents)
        extents, deps = analysis
        plan.extents[stmt.name] = extents
        plan.deps_cache[stmt.name] = deps
        carried = {d.carried_dim for d in deps if d.kind == "RAW"}
        plan.free[stmt.name] = [d for d in final.loop_order if d not in carried]
        plan.skewed[stmt.name] = any(isinstance(d, Skew) for d in directives)

    plan.fused_groups = _plan_fusion(function, plan)
    return plan


def _restructure_node(
    program: PolyProgram, name: str, prefix: int = 0
) -> Tuple[List[Directive], Optional[Tuple[Dict[str, int], list]]]:
    """Iteratively recheck and transform one node (bounded iterations).

    Only loop levels below the structural ``prefix`` may be reordered or
    skewed; the shared outer loops stay where the algorithm put them.
    Each iteration analyzes every dependence kind once and reads the
    RAW-free dims off that.  Returns the directives and, when the last
    analyzed statement is the final one or an interchange of it that
    :func:`~repro.dse.analysis.relevel` reads the analysis across, the
    final statement's ``(extents, deps)``.
    """
    directives: List[Directive] = []
    for _ in range(MAX_ITERATIONS):
        stmt = program.statement(name)
        extents = loop_extents(stmt)
        deps = carried_for_statement(stmt, _KINDS, extents)
        carried = {d.carried_dim for d in deps if d.kind == "RAW"}
        free = [d for d in stmt.loop_order[prefix:] if d not in carried]
        if free:
            moves = _interchanges_for_order(stmt.loop_order, free, name, prefix)
            for move in moves:
                program.apply_directive(move)
            directives.extend(moves)
            if not moves:
                return directives, (extents, deps)
            final = program.statement(name).loop_order
            return directives, relevel(stmt, final, extents, deps)
        # No free dim: skew the two innermost loops into a wavefront.
        if stmt.depth() - prefix < 2:
            # too shallow below the frozen prefix
            return directives, (extents, deps)
        outer, inner = stmt.loop_order[-2], stmt.loop_order[-1]
        if not _skew_legal(deps, outer, inner):
            # Non-uniform dependences (unbounded negative inner distance)
            # cannot be legalized by any finite skew -- e.g. a forward
            # substitution's x[i] <- x[j<i] feedback.  Leave the node
            # serial rather than emit a wrong wavefront.
            return directives, (extents, deps)
        factor = _skew_factor(deps, outer, inner)
        skew = Skew(name, outer, inner, factor, f"{outer}_w", f"{inner}_w")
        program.apply_directive(skew)
        directives.append(skew)
        swap = Interchange(name, f"{outer}_w", f"{inner}_w")
        program.apply_directive(swap)
        directives.append(swap)
        # Loop back: recheck dependences on the transformed statement.
    return directives, None


def _skew_legal(deps, outer: str, inner: str) -> bool:
    """Whether a finite skew of (outer, inner) can legalize every dep.

    Requires each dependence's inner-dim distance to be known (constant,
    or the dep is carried at the inner dim, where the minimum carried
    distance bounds it below by 1).  An unknown inner distance on an
    outer-carried dependence means the wavefront could run backwards.
    """
    for dep in deps:
        if inner not in dep.dims:
            continue
        if dep.distance[inner] is None and dep.carried_dim != inner:
            return False
    return True


def _skew_factor(deps, outer: str, inner: str) -> int:
    """Smallest skew making every dependence strictly forward in
    ``inner + factor * outer``.

    A dependence with distances ``(do, dn)`` on (outer, inner) needs
    ``dn + factor * do >= 1``; heat-style stencils with ``dn = -1``
    therefore require factor 2, while Seidel's ``(1, 0)`` needs 1.
    """
    needed = 1
    for dep in deps:
        if outer not in dep.dims or inner not in dep.dims:
            continue
        do = dep.distance[outer]
        if do is None and dep.carried_dim == outer:
            # carried at the outer dim with non-constant distance: the
            # minimum carried distance is the binding (worst) case.
            do = dep.min_distance or 1
        dn = dep.distance[inner]
        if do is None or dn is None or do < 1:
            continue
        needed = max(needed, -(-(1 - dn) // do))
    return max(1, needed)


def _interchanges_for_order(
    current: List[str], free: List[str], name: str, prefix: int = 0
) -> List[Directive]:
    """Directives placing carried dims outermost and free dims innermost
    within the unfrozen suffix of the loop order."""
    locked = list(current[:prefix])
    suffix = current[prefix:]
    carried = [d for d in suffix if d not in free]
    target = locked + carried + [d for d in suffix if d in free]
    order = list(current)
    moves: List[Directive] = []
    for position, want in enumerate(target):
        at = order.index(want)
        if at != position:
            moves.append(Interchange(name, order[position], order[at]))
            order[position], order[at] = order[at], order[position]
    return moves


def _plan_fusion(function: Function, plan: Stage1Plan) -> List[List[str]]:
    """Groups of nodes that may legally share one pipeline.

    Conservative rule: two consecutive nodes fuse when their (restructured)
    loop nests have identical extents level by level and either no
    producer-consumer relation connects them or every connecting access
    is a constant translation with non-positive offsets (the consumer
    only reads elements already produced).
    """
    groups: List[List[str]] = []
    computes = function.computes
    for index, compute in enumerate(computes):
        placed = False
        # Only the group ending in the *immediately preceding* compute is
        # a candidate: fusing across an intermediate statement would hoist
        # this compute ahead of producers it transitively depends on.
        if groups and index > 0 and groups[-1][-1] == computes[index - 1].name:
            group = groups[-1]
            # The extents are in loop order: compare them level by level.
            shape = list(plan.extents[compute.name].values())
            if shape == list(plan.extents[group[-1]].values()) and all(
                _fusable(
                    function.get_compute(member), compute,
                    plan.orders[member], plan.orders[compute.name],
                )
                for member in group
            ):
                group.append(compute.name)
                placed = True
        if not placed:
            groups.append([compute.name])
    return [g for g in groups]


def _fusable(producer, consumer, producer_order=None, consumer_order=None) -> bool:
    """Whether two computes may share a pipeline.

    Statements with no shared data fuse freely (each keeps its own loop
    order inside the fused body).  A producer-consumer pair fuses only
    when the accesses are constant translations with non-positive
    offsets *and* both statements iterate in the same restructured loop
    order -- the alignment argument is meaningless if one side was
    interchanged (the ATAX pattern: tmp flows between transposed
    reductions).
    """
    offsets = cross_offsets(producer, consumer)
    if not offsets:
        return True  # no shared data at all
    if producer_order is not None and producer_order != consumer_order:
        return False
    for value in offsets.values():
        if value is None:
            return False
        if any(entry > 0 for entry in value):
            return False
    return True
