"""Search-quality tests: the ladder vs. exhaustive enumeration.

On kernels small enough to enumerate the whole (power-of-two
parallelism) design space, the bottleneck ladder must land within a
small factor of the true optimum -- the paper's claim that the
two-stage search "finds high-performance design choices successfully"
despite exploring a tiny fraction of the space.
"""

import itertools

import pytest

from repro.dse import auto_dse
from repro.dse.evaluator import Evaluator
from repro.hls.estimator import HlsEstimator
from repro.hls.device import DEFAULT_DEVICE
from repro.affine.lowering import lower_program
from repro.polyir.program import PolyProgram
from repro.workloads import polybench

DEGREES = (1, 2, 4, 8, 16, 32)


def exhaustive_best(factory, size):
    """Evaluate every per-node power-of-two parallelism combination."""
    probe = factory(size)
    nodes = [c.name for c in probe.computes]
    estimator = HlsEstimator()
    best_cycles = None
    evaluated = 0
    for combo in itertools.product(DEGREES, repeat=len(nodes)):
        function = factory(size)
        evaluator = Evaluator(function)
        evaluator.install(evaluator.configs(dict(zip(nodes, combo))), 128)
        report = estimator.estimate(
            lower_program(PolyProgram(function).apply_schedule())
        )
        evaluated += 1
        if report.feasible() and (best_cycles is None or report.total_cycles < best_cycles):
            best_cycles = report.total_cycles
    return best_cycles, evaluated


@pytest.mark.parametrize("name,size", [("gemm", 64), ("bicg", 64)])
def test_ladder_close_to_exhaustive(name, size):
    factory = polybench.SUITE[name]
    best, space = exhaustive_best(factory, size)
    assert best is not None

    function = factory(size)
    result = auto_dse(function)
    ratio = result.report.total_cycles / best
    assert ratio <= 1.6, (
        f"{name}: ladder found {result.report.total_cycles} cycles vs "
        f"exhaustive best {best} over {space} points (ratio {ratio:.2f})"
    )


def test_ladder_evaluates_fraction_of_space():
    """The point of the two-stage search: few evaluations, good design."""
    function = polybench.mm2(64)
    result = auto_dse(function)
    space_size = len(DEGREES) ** len(function.computes)
    assert result.evaluations < space_size / 1.5
