"""The search against the exact optimum of its own space.

Stage 2's design space is small (:class:`repro.dse.stage2.Space`: a
power-of-two degree per fusion group and three bank caps, at most 243
points on the registry kernels), so enumerating it is an exact oracle.
Scoring a point writes nothing, so the sweep's own evaluator scores every
point after the sweep and the optimum is the fewest cycles among the
points the budget admits.  The ladder cannot beat the optimum of the
space it walks; where it misses it today, the miss is pinned as a
ratchet: a ratio may fall, never rise.

The dataflow balancer is checked the same way, against the product of
its stage frontiers.
"""

import itertools

import pytest

from repro import workloads
from repro.dataflow import auto_dse_dataflow
from repro.dataflow.dse import _fits
from repro.dataflow.estimate import resolve_depths
from repro.dse.engine import sweep
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions
from repro.hls.report import Resources
from repro.workloads import polybench

KERNELS = tuple(
    name for name in workloads.names(kind="function")
    if name not in ("vgg16", "resnet18")
)
SIZES = (256, 512)
FRACTIONS = (0.25, 0.5, 1.0)

#: Ladder / optimum of every input the ladder misses the optimum on,
#: rounded up: upper bounds.  Every other input must match it exactly.
#: seidel and jacobi-2d stop at the first doubling that does not improve
#: (the node plan is not monotone in the degree) and miss the most.
MISSES = {
    ("2mm", 256, 1.0): 1.0039,
    ("2mm", 512, 1.0): 1.0020,
    ("atax", 256, 1.0): 1.1334,
    ("atax", 512, 1.0): 1.0870,
    ("blur", 256, 1.0): 1.2576,
    ("edgedetect", 256, 0.5): 1.86,
    ("edgedetect", 512, 0.25): 1.3791,
    ("edgedetect", 512, 0.5): 1.0803,
    ("edgedetect", 512, 1.0): 1.1079,
    ("jacobi-2d", 256, 0.25): 2.6715,
    ("jacobi-2d", 256, 0.5): 4.9318,
    ("jacobi-2d", 256, 1.0): 8.3621,
    ("seidel", 256, 0.25): 3.1238,
    ("seidel", 256, 0.5): 5.2263,
    ("seidel", 256, 1.0): 7.4862,
}


def optimum(evaluator: Evaluator, options: DseOptions) -> int:
    """The fewest cycles of any point of the space the budget admits."""
    budget = options.resolved_device().scaled(options.resource_fraction)
    cycles = []
    for parallelism, bank_cap in evaluator.space(options.max_parallelism).points():
        report, _ = evaluator.realize(evaluator.configs(parallelism), bank_cap)
        if budget.admits(report.resources):
            cycles.append(report.total_cycles)
    return min(cycles)


@pytest.mark.parametrize(
    "name,size,fraction", itertools.product(KERNELS, SIZES, FRACTIONS)
)
def test_ladder_against_the_optimum_of_its_space(name, size, fraction):
    options = DseOptions(resource_fraction=fraction)
    result, evaluator = sweep(workloads.get(name, size), options)
    assert result.feasible
    ratio = result.report.total_cycles / optimum(evaluator, options)
    assert 1 <= ratio <= MISSES.get((name, size, fraction), 1), (
        f"{name}@{size}@{fraction}: ladder / optimum = {ratio:.4f}"
    )


def test_space_of_a_fused_kernel():
    space = Evaluator(polybench.gesummv(32)).space(256)
    assert space.groups == (("St", "Sy"), ("Sf",))
    assert space.ladders == ((1, 2, 4, 8, 16, 32, 64, 128, 256), (1, 2, 4, 8, 16, 32))
    assert space.group_of("Sy") == ("St", "Sy")
    # A group steps together, and not past its smallest trip product.
    assert space.step({"St": 1, "Sy": 1, "Sf": 4}, ("St", "Sy")) == {
        "St": 2, "Sy": 2, "Sf": 4,
    }
    assert space.step({"St": 1, "Sy": 1, "Sf": 32}, ("Sf",)) is None
    points = list(space.points())
    assert len(points) == 9 * 6 * len(space.bank_caps)
    assert len({(tuple(sorted(p.items())), cap) for p, cap in points}) == len(points)


def test_ladder_evaluates_fraction_of_space():
    """The point of the two-stage search: few evaluations, good design."""
    result, evaluator = sweep(polybench.mm2(64))
    space = evaluator.space(DseOptions().max_parallelism)
    assert result.evaluations < len(list(space.points())) / 4


@pytest.mark.dataflow
@pytest.mark.parametrize(
    "name,size,fraction",
    itertools.product(
        ("image-pipeline", "conv-block"), (16, 32, 64), (0.1, 0.25, 0.5, 1.0)
    ),
)
def test_balancer_reaches_the_best_product_of_stage_frontiers(name, size, fraction):
    design = workloads.get(name, size)
    options = DseOptions(resource_fraction=fraction)
    result = auto_dse_dataflow(design, options)
    budget = options.resolved_device().scaled(fraction)
    fifo_resources = sum(
        (fifo.resources() for fifo in resolve_depths(design)), Resources()
    )
    frontiers = {
        stage: stage_result.frontier
        for stage, stage_result in result.stage_results.items()
    }
    best = min(
        max(point.cycles for point in combo)
        for combo in itertools.product(*frontiers.values())
        if _fits(dict(zip(frontiers, combo)), fifo_resources, budget)
    )
    assert max(point.cycles for point in result.selection.values()) == best
