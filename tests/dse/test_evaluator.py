"""The Evaluator seam: every route to a scored candidate agrees.

The search is the client of :class:`repro.dse.evaluator.Evaluator`, and
dataflow realization asks the evaluator of a stage's sweep for a point
it scored earlier.  These tests pin that one candidate yields the same
report and the same lowered IR whichever way it is asked for, cached or
not, and that scoring it writes nothing on the function: only
``install`` does.
"""

import pytest

from repro import workloads
from repro.affine import print_func
from repro.affine.lowering import lower_program
from repro.dse import DseOptions, auto_dse
from repro.dse.evaluator import Evaluator
from repro.dse.stage2 import derive_partitions
from repro.hls.estimator import HlsEstimator
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
# (degree for every node, bank cap); the last cap binds
POINTS = [(1, 128), (4, 128), (4, 8), (8, 16), (8, 4)]


def _installed_ir(function):
    return print_func(lower_program(PolyProgram(function).apply_schedule()))


def _state(function):
    return function.schedule.fingerprint(), function.partitions()


@pytest.mark.parametrize("name", sorted(SEAM_WORKLOADS))
def test_every_route_scores_a_candidate_identically(name):
    build = SEAM_WORKLOADS[name]
    cached = Evaluator(build())
    uncached = Evaluator(build(), cache=False)
    designs, scored = [], []
    for degree, bank_cap in POINTS:
        par = {node: degree for node in cached.nodes}
        before = _state(cached.function)
        report, func_op = cached.realize(cached.configs(par), bank_cap)
        assert _state(cached.function) == before
        ir = print_func(func_op)
        cached.install(cached.configs(par), bank_cap)
        assert _installed_ir(cached.function) == ir

        report_u, func_op_u = uncached.realize(uncached.configs(par), bank_cap)
        assert report_u == report
        assert print_func(func_op_u) == ir
        banking = derive_partitions(
            uncached.function, max_banks=bank_cap, spreads=uncached._scheduled[3]
        )
        designs.append((degree, sorted(banking.items())))
        scored.append((par, bank_cap, report, ir))
    # The memoizing evaluator revisits a design without lowering a nest
    # or estimating one.  The other lowers a schedule once for the bank
    # caps that follow it, and estimates every candidate but one that
    # repeats the design scored just before it (a bank cap that derives
    # the same banking).
    work = (cached.stats.group_lowerings, cached.estimator.nest_misses)
    par = {node: POINTS[-1][0] for node in cached.nodes}
    again, func_op = cached.realize(cached.configs(par), POINTS[-1][1])
    assert again == report and print_func(func_op) == ir
    assert (cached.stats.group_lowerings, cached.estimator.nest_misses) == work

    def changes(sequence):
        return sum(1 for before, item in zip([None] + sequence, sequence) if item != before)

    assert uncached.stats.lowerings == changes([degree for degree, _ in designs])
    assert uncached.stats.estimations == changes(designs)
    assert cached.stats.lowerings == uncached.stats.lowerings
    # Dataflow realization: the evaluator that scored a point realizes
    # and installs it again after others, whatever it installed last,
    # from the banking its function had when it was built.
    for par, bank_cap, report, ir in reversed(scored):
        again, func_op = cached.realize(cached.configs(par), bank_cap)
        assert again == report and print_func(func_op) == ir
        cached.install(cached.configs(par), bank_cap)
        assert _installed_ir(cached.function) == ir
    assert (cached.stats.group_lowerings, cached.estimator.nest_misses) == work


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("objective", ["single", "pareto"])
@pytest.mark.parametrize("name", ["gemm", "bicg", "2mm", "jacobi-2d"])
def test_a_sweep_writes_the_function_once(name, objective, cache, monkeypatch):
    """Every candidate a sweep realizes leaves the function's schedule
    and partition schemes as they were when the evaluator was built; the
    one write is the final ``install``, after which the function lowers
    to the realized IR and estimates to the realized report.  (The sweep
    would quarantine a failed assertion, so the observations are kept.)"""
    built, unchanged, scored, installed = {}, [], {}, []
    init, realize, install = Evaluator.__init__, Evaluator.realize, Evaluator.install

    def recording_init(self, function, *args, **kwargs):
        init(self, function, *args, **kwargs)
        built[id(self)] = _state(function)

    def checked_realize(self, configs, bank_cap):
        try:
            report, func_op = realize(self, configs, bank_cap)
        finally:
            unchanged.append(not installed and _state(self.function) == built[id(self)])
        scored[self.fingerprint(configs), bank_cap] = report, print_func(func_op)
        return report, func_op

    def recording_install(self, configs, bank_cap):
        install(self, configs, bank_cap)
        installed.append((self, configs, bank_cap))

    monkeypatch.setattr(Evaluator, "__init__", recording_init)
    monkeypatch.setattr(Evaluator, "realize", checked_realize)
    monkeypatch.setattr(Evaluator, "install", recording_install)
    result = auto_dse(
        workloads.get(name, 16),
        options=DseOptions(resource_fraction=0.25, cache=cache, objective=objective),
    )
    assert len(unchanged) >= 2 and all(unchanged) and not result.quarantine

    ((evaluator, configs, bank_cap),) = installed
    report, ir = scored[evaluator.fingerprint(configs), bank_cap]
    lowered = lower_program(PolyProgram(result.function).apply_schedule())
    assert print_func(lowered) == ir
    estimator = HlsEstimator(evaluator.estimator.device, evaluator.estimator.clock_ns)
    assert estimator.estimate(lowered) == report == result.report


@pytest.mark.xfail(
    strict=True,
    reason="the evaluator takes the partitions an earlier sweep installed "
    "as the baseline banking of the next one (ROADMAP 12)",
)
@pytest.mark.parametrize("name", ["jacobi-2d", "seidel"])
def test_a_second_sweep_of_one_function_designs_as_a_fresh_one(name):
    function = workloads.get(name, 64)
    auto_dse(function, options=DseOptions(resource_fraction=0.25))
    again = auto_dse(function)
    fresh = auto_dse(workloads.get(name, 64))
    assert (again.report.total_cycles, again.evaluations) == (
        fresh.report.total_cycles, fresh.evaluations
    )
