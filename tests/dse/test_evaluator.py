"""The Evaluator seam: every route to a scored candidate agrees.

The search and dataflow realization are both clients of
:class:`repro.dse.evaluator.Evaluator`.  These tests pin that one
candidate yields the same report and the same lowered IR whichever
client asks, cached or not.
"""

import pytest

from repro import workloads
from repro.affine import print_func
from repro.affine.lowering import lower_program
from repro.dataflow.dse import _realize_stage
from repro.dse.evaluator import Evaluator
from repro.hls.device import DEFAULT_DEVICE
from repro.polyir.program import PolyProgram


def _stage(design_name, stage_name):
    return lambda: workloads.get(design_name).stages[stage_name].function


# name -> fresh-function factory: single nests, multi-nest programs,
# fused groups (bicg, 3mm, gesummv), a skewed stencil, one dataflow
# stage function, and the two DNNs (13 and 20 statements).
SEAM_WORKLOADS = {
    "gemm": lambda: workloads.get("gemm", 16),
    "bicg": lambda: workloads.get("bicg", 16),
    "3mm": lambda: workloads.get("3mm", 16),
    "gesummv": lambda: workloads.get("gesummv", 16),
    "seidel": lambda: workloads.get("seidel", 16),
    "blur": lambda: workloads.get("blur", 16),
    "image-pipeline.grad": _stage("image-pipeline", "grad"),
    "vgg16": lambda: workloads.get("vgg16", 4),
    "resnet18": lambda: workloads.get("resnet18", 4),
}
# (degree for every node, bank cap)
POINTS = [(1, 128), (4, 128), (4, 8), (8, 16)]


def _installed_ir(function):
    return print_func(lower_program(PolyProgram(function).apply_schedule()))


@pytest.mark.parametrize("name", sorted(SEAM_WORKLOADS))
def test_every_route_scores_a_candidate_identically(name):
    build = SEAM_WORKLOADS[name]
    cached = Evaluator(build())
    uncached = Evaluator(build(), cache=False)
    for degree, bank_cap in POINTS:
        par = {node: degree for node in cached.nodes}
        report, func_op = cached.realize(cached.configs(par), bank_cap)
        ir = print_func(func_op)
        assert _installed_ir(cached.function) == ir

        report_u, func_op_u = uncached.realize(uncached.configs(par), bank_cap)
        assert report_u == report
        assert print_func(func_op_u) == ir

        stage_function = build()
        realized = _realize_stage(
            stage_function, DEFAULT_DEVICE, DEFAULT_DEVICE.clock_ns,
            par, bank_cap, keep_existing_schedule=False,
        )
        assert realized == report
        assert _installed_ir(stage_function) == ir
    # The memoizing evaluator revisits a design without lowering a nest
    # or estimating one; the other lowers every candidate.
    work = (cached.stats.group_lowerings, cached.estimator.nest_misses)
    par = {node: POINTS[-1][0] for node in cached.nodes}
    again, func_op = cached.realize(cached.configs(par), POINTS[-1][1])
    assert again == report and print_func(func_op) == ir
    assert (cached.stats.group_lowerings, cached.estimator.nest_misses) == work
    assert uncached.stats.lowerings == len(POINTS)
