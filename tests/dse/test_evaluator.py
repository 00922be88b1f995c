"""The Evaluator seam: every route to a scored candidate agrees.

The sequential search, the speculation workers and dataflow realization
are all clients of :class:`repro.dse.evaluator.Evaluator`.  These tests
pin that one candidate yields the same report and the same lowered IR
whichever client asks, and that a failing candidate yields the same
diagnostic from the in-process search and from a worker.
"""

import re

import pytest

import repro.dse.evaluator as evaluator_mod
from repro import workloads
from repro.affine import print_func
from repro.affine.lowering import lower_program
from repro.dataflow.dse import _realize_stage
from repro.diagnostics import DiagnosticError
from repro.dse import DseOptions, SpeculativeEvaluator, auto_dse
from repro.dse.evaluator import Evaluator
from repro.hls.device import DEFAULT_DEVICE
from repro.polyir.program import PolyProgram


def _stage(design_name, stage_name):
    return lambda: workloads.get(design_name).stages[stage_name].function


# name -> fresh-function factory: single nests, multi-nest programs,
# fused groups (bicg, 3mm, gesummv), a skewed stencil, and one dataflow
# stage function.
SEAM_WORKLOADS = {
    "gemm": lambda: workloads.get("gemm", 16),
    "bicg": lambda: workloads.get("bicg", 16),
    "3mm": lambda: workloads.get("3mm", 16),
    "gesummv": lambda: workloads.get("gesummv", 16),
    "seidel": lambda: workloads.get("seidel", 16),
    "blur": lambda: workloads.get("blur", 16),
    "image-pipeline.grad": _stage("image-pipeline", "grad"),
}
# (degree for every node, bank cap)
POINTS = [(1, 128), (4, 128), (4, 8), (8, 16)]


def _installed_ir(function):
    return print_func(lower_program(PolyProgram(function).apply_schedule()))


@pytest.mark.parallel
@pytest.mark.parametrize("name", sorted(SEAM_WORKLOADS))
def test_every_route_scores_a_candidate_identically(name):
    build = SEAM_WORKLOADS[name]
    cached = Evaluator(build())
    uncached = Evaluator(build(), cache=False)
    worker = SpeculativeEvaluator(build(), jobs=1)
    try:
        for degree, bank_cap in POINTS:
            par = {node: degree for node in cached.nodes}
            assert worker.prefetch(par, bank_cap)
            report, func_op = cached.realize(cached.configs(par), bank_cap)
            ir = print_func(func_op)
            assert _installed_ir(cached.function) == ir

            report_u, func_op_u = uncached.realize(uncached.configs(par), bank_cap)
            assert report_u == report
            assert print_func(func_op_u) == ir

            outcome = worker.take(par, bank_cap)
            assert outcome is not None and outcome.ok, outcome
            assert outcome.report == report

            stage_function = build()
            realized = _realize_stage(
                stage_function, DEFAULT_DEVICE, DEFAULT_DEVICE.clock_ns,
                par, bank_cap, keep_existing_schedule=False,
            )
            assert realized == report
            assert _installed_ir(stage_function) == ir
    finally:
        worker.close()
    # The memoizing evaluator revisits a design for free; the other
    # never claims a hit.
    lowerings = cached.stats.lowerings
    par = {node: POINTS[-1][0] for node in cached.nodes}
    cached.realize(cached.configs(par), POINTS[-1][1])
    assert cached.stats.lowerings == lowerings
    assert cached.stats.design_cache_hits >= 1
    assert uncached.stats.design_cache_hits == 0
    assert uncached.stats.lowerings == len(POINTS)


def _worker_diagnostic(function, par, bank_cap, **kwargs):
    worker = SpeculativeEvaluator(function, jobs=1, **kwargs)
    try:
        assert worker.prefetch(par, bank_cap)
        outcome = worker.take(par, bank_cap)
    finally:
        worker.close()
    assert outcome is not None and not outcome.ok
    return outcome


@pytest.mark.parallel
def test_timeout_diagnostic_is_the_same_in_process_and_in_a_worker():
    """DSE003 has one definition: the search's baseline timeout and a
    worker's differ only in the measured seconds."""
    budget = 1e-9
    with pytest.raises(DiagnosticError) as info:
        auto_dse(
            workloads.get("gemm", 16),
            options=DseOptions(candidate_timeout_s=budget),
        )
    local = info.value.diagnostic
    outcome = _worker_diagnostic(
        workloads.get("gemm", 16), {"s": 1}, 128, candidate_timeout_s=budget
    )
    remote = outcome.diagnostic
    assert local.code == remote.code == "DSE003"
    assert outcome.elapsed_s is not None

    def shape(diagnostic):
        return (
            diagnostic.severity,
            re.sub(r"\d+\.\d+s", "<t>s", diagnostic.message),
            diagnostic.location,
            diagnostic.notes,
        )

    assert shape(local) == shape(remote)
    assert shape(local)[1] == (
        "candidate evaluation timed out after <t>s (budget <t>s)"
    )


@pytest.mark.parallel
def test_foreign_exception_diagnostic_is_the_same_in_process_and_in_a_worker(
    monkeypatch,
):
    """DSE001 has one definition: a foreign exception quarantined by the
    search reads exactly like the one a worker ships back."""
    original = evaluator_mod.plan_node_config

    def sabotaged(function, plan, name, degree, program=None):
        if degree >= 4:
            raise RuntimeError("synthetic failure at degree 4")
        return original(function, plan, name, degree, program=program)

    monkeypatch.setattr(evaluator_mod, "plan_node_config", sabotaged)
    result = auto_dse(workloads.get("gemm", 16))
    local = [q.diagnostic for q in result.quarantine]
    assert local and all(d.code == "DSE001" for d in local)
    # The forked worker inherits the sabotage.
    outcome = _worker_diagnostic(workloads.get("gemm", 16), {"s": 4}, 128)
    assert outcome.diagnostic == local[0]
