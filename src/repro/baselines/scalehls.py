"""ScaleHLS-style baseline: single-IR loop optimization with greedy DSE.

Models the strategy of ScaleHLS (the paper's main comparator) and its
documented limitations (Sections II-C, VII-B):

* the input keeps its C-code loop structure -- statements sharing a
  nest must share one loop order (no split-interchange-merge);
* loop interchange is the only dependence-relieving transform (no
  splitting, no skewing, no re-fusion);
* its DSE greedily optimizes nests in program order rather than by
  critical-path bottleneck;
* every loop nest instantiates private hardware (no operator sharing
  across nests), which is also why its DNN dataflow designs overflow
  the device.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.dsl.function import Function
from repro.dsl.schedule import After, Fuse, Pipeline, Split, Unroll
from repro.affine.lowering import lower_program
from repro.hls.device import BUDGET_AXES, DEFAULT_DEVICE, FPGADevice
from repro.hls.estimator import HlsEstimator
from repro.hls.report import SynthesisReport
from repro.polyir.program import PolyProgram
from repro.dse.analysis import carried_for_statement
from repro.dse.options import MAX_PARALLELISM
from repro.dse.stage2 import (
    MAX_FACTOR_PER_DIM, Space, banked_partitions, derive_partitions, interchanges,
    order_after_splits, unroll_spreads,
)

# Extra design points ScaleHLS's sampler probes per accepted ladder step
# (its search lacks dependence-guided pruning, hence longer DSE times).
PROBE_EVALUATIONS = 2


@dataclass
class ScaleHlsResult:
    """Outcome of the ScaleHLS-style optimization."""

    function: Function
    report: SynthesisReport
    orders: Dict[str, List[str]]
    unrolls: Dict[str, List[Tuple[str, int]]]
    dse_time_s: float = 0.0

    def tile_vector(self, node: str) -> List[int]:
        factors = dict(self.unrolls.get(node, []))
        return [factors.get(dim, 1) for dim in self.orders[node]]


def optimize(
    function: Function,
    device: Optional[FPGADevice] = None,
    resource_fraction: float = 1.0,
    clock_ns: float = 10.0,
    dataflow: bool = False,
    max_parallelism: int = MAX_PARALLELISM,
) -> ScaleHlsResult:
    """Run the ScaleHLS-style flow and install the best schedule found."""
    start = time.perf_counter()
    device = device or DEFAULT_DEVICE
    budget = device.scaled(resource_fraction)
    estimator = HlsEstimator(
        device=device, clock_ns=clock_ns, dataflow=dataflow, share_sequential=False
    )

    groups = _nest_groups(function)
    # Every trial's banking is laid over the arrays' own schemes.
    baseline = function.partitions()

    orders = _common_orders(function, groups)
    nodes = [c.name for c in function.computes]
    parallelism = {name: 1 for name in nodes}

    def evaluate(par: Dict[str, int]):
        unrolls = {
            name: _distribute(function, name, orders[name], par[name])
            for name in nodes
        }
        _install(function, groups, orders, unrolls)
        program = PolyProgram(function).apply_schedule()
        banking = derive_partitions(function, spreads=unroll_spreads(program))
        func_op = lower_program(program, partitions=banked_partitions(baseline, banking))
        return estimator.estimate(func_op), unrolls

    best = evaluate(parallelism)

    # Greedy in program order: each nest group maxes itself out before
    # the next one is considered (the paper's 3MM imbalance).  The space
    # orders its groups by their first statement.
    space = Space.build(function, groups, max_parallelism)
    # Dataflow accounting blind spot: ScaleHLS sizes every stage as if it
    # had the device to itself, so the summed design can exceed the
    # board (the paper's 164%-LUT ResNet-18 result).
    stages = len(space.groups) if dataflow else 1
    budget = replace(budget, **{
        axis: getattr(budget, axis) * stages for axis in BUDGET_AXES
    })
    for group in space.groups:
        while (trial := space.step(parallelism, group)) is not None:
            trial_report, trial_unrolls = evaluate(trial)
            # ScaleHLS's sampler also probes alternative factor
            # placements per step (it lacks dependence-guided pruning),
            # which is where its longer DSE time comes from.
            for _ in range(PROBE_EVALUATIONS):
                evaluate(trial)
            if not (
                budget.admits(trial_report.resources)
                and trial_report.total_cycles <= best[0].total_cycles
            ):
                break
            parallelism, best = trial, (trial_report, trial_unrolls)

    report, unrolls = best
    _install(function, groups, orders, unrolls)
    function.set_partitions(banked_partitions(baseline, derive_partitions(function)))
    elapsed = time.perf_counter() - start
    return ScaleHlsResult(
        function=function,
        report=report,
        orders=orders,
        unrolls=unrolls,
        dse_time_s=elapsed,
    )


# -- nest structure ---------------------------------------------------------------


def _nest_groups(function: Function) -> List[List[str]]:
    """Statement groups sharing one C nest (from after/fuse directives)."""
    group_of: Dict[str, List[str]] = {}
    groups: List[List[str]] = []
    for compute in function.computes:
        group = [compute.name]
        groups.append(group)
        group_of[compute.name] = group
    for directive in function.schedule:
        if isinstance(directive, (After, Fuse)) and directive.level is not None:
            a = group_of[directive.other]
            b = group_of[directive.compute_name]
            if a is b:
                continue
            a.extend(b)
            for member in b:
                group_of[member] = a
            groups.remove(b)
    return groups


def _common_orders(function: Function, groups: List[List[str]]) -> Dict[str, List[str]]:
    """One loop order per nest group, chosen by interchange only.

    Scores each permutation by, member by member, whether the innermost
    loop carries a dependence (ScaleHLS relieves the *first* statement's
    tight dependence and lives with the rest -- the BICG failure mode).
    """
    orders: Dict[str, List[str]] = {}
    program = PolyProgram(function)
    carried: Dict[str, set] = {}
    for compute in function.computes:
        stmt = program.statement(compute.name)
        carried[compute.name] = {d.carried_dim for d in carried_for_statement(stmt)}

    for group in groups:
        dims = function.get_compute(group[0]).iter_names
        if any(function.get_compute(m).iter_names != dims for m in group) or len(dims) > 4:
            for member in group:
                orders[member] = list(function.get_compute(member).iter_names)
            continue
        best_order = None
        best_score = None
        for perm in itertools.permutations(dims):
            score = tuple(
                tuple(1 if perm[pos] in carried[m] else 0
                      for pos in range(len(perm) - 1, -1, -1))
                for m in group
            )
            if best_score is None or score < best_score:
                best_score = score
                best_order = list(perm)
        for member in group:
            orders[member] = list(best_order)
    return orders


# -- parallelism distribution ----------------------------------------------------


def _distribute(function: Function, node: str, order: List[str], parallelism: int):
    """Innermost-first unroll factors, leaving one loop to pipeline."""
    compute = function.get_compute(node)
    extents = {it.name: it.extent for it in compute.iters}
    unrolls: List[Tuple[str, int]] = []
    remaining = max(1, parallelism)
    for position, dim in enumerate(reversed(order)):
        if remaining <= 1:
            break
        extent = extents[dim]
        cap = extent if position < len(order) - 1 else max(1, extent // 2)
        factor = min(remaining, cap, MAX_FACTOR_PER_DIM)
        while factor > 1 and extent % factor:
            factor -= 1
        if factor <= 1:
            continue
        unrolls.append((dim, factor))
        remaining //= factor
    unrolls.reverse()
    return unrolls


def _install(function, groups, orders, unrolls) -> None:
    function.reset_schedule()
    pipeline_levels: Dict[str, Tuple[str, int]] = {}
    for compute in function.computes:
        node = compute.name
        order = list(orders[node])
        # interchanges to the common order
        for move in interchanges(node, list(compute.iter_names), order):
            compute.interchange(move.i, move.j)

        extents = {it.name: it.extent for it in compute.iters}
        unrolled_parts: List[str] = []
        final_order = list(order)
        for dim, factor in unrolls[node]:
            if factor >= extents[dim]:
                unrolled_parts.append(dim)
            else:
                compute.split(dim, factor, f"{dim}_t", f"{dim}_u")
                final_order[final_order.index(dim)] = f"{dim}_t"
                unrolled_parts.append(f"{dim}_u")
        sequential = [d for d in final_order if d not in unrolled_parts]
        # reorder: sequential loops outer, unrolled parts inner
        target = sequential + unrolled_parts
        current = order_after_splits(final_order, unrolled_parts)
        for move in interchanges(node, current, target):
            compute.interchange(move.i, move.j)
        pipeline_dim = sequential[-1] if sequential else target[0]
        compute.pipeline(pipeline_dim, 1)
        for part in unrolled_parts:
            compute.unroll(part, 0)
        pipeline_levels[node] = (pipeline_dim, len(sequential) - 1)

    # re-fuse nest groups at the pipeline level (C structure preserved)
    for group in groups:
        for previous, currentn in zip(group, group[1:]):
            prev_dim, prev_level = pipeline_levels[previous]
            cur_dim, cur_level = pipeline_levels[currentn]
            if prev_level == cur_level:
                function.schedule.add(
                    After(currentn, previous, prev_dim, structural=False)
                )
