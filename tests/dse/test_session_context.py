"""A sweep and the evaluator that outlives it run under one SessionContext."""

import pytest

from repro import workloads
from repro.affine import print_func
from repro.dataflow import auto_dse_dataflow
from repro.dse import auto_dse
from repro.dse.engine import sweep
from repro.dse.options import DseOptions
from repro.faults import Fault, FaultPlan
from repro.session import SessionContext

UNCACHED = {
    # Dataflow realization runs after each stage sweep has returned.
    "dataflow:conv-block@32@0.25": lambda: auto_dse_dataflow(
        workloads.get("conv-block", 32),
        DseOptions(resource_fraction=0.25, cache=False),
    ),
    "gemm@16": lambda: auto_dse(workloads.get("gemm", 16), DseOptions(cache=False)),
}


@pytest.mark.parametrize("run", UNCACHED.values(), ids=UNCACHED)
def test_an_uncached_sweep_leaves_the_outer_isl_memo_untouched(run):
    outer = SessionContext()
    with outer.activate():
        before = outer.memo.stats_snapshot()
        run()
        assert outer.memo.stats_snapshot() == before


def test_a_realization_after_the_sweep_fires_no_fault(monkeypatch):
    plan = FaultPlan([Fault("transient", 0), Fault("transient", 2, count=2)])
    result, evaluator = sweep(workloads.get("gemm", 16), DseOptions(fault_plan=plan))
    fired = list(plan.fired)
    assert fired == [("transient", 0), ("transient", 2), ("transient", 2)]

    consulted = []
    on_estimate = FaultPlan.on_estimate
    monkeypatch.setattr(
        FaultPlan, "on_estimate", lambda self: consulted.append(self) or on_estimate(self)
    )
    other = evaluator.configs(dict.fromkeys(evaluator.nodes, 1))
    evaluator.realize(other, result.bank_cap)
    report, func_op = evaluator.realize(result.configs, result.bank_cap)
    evaluator.install(result.configs, result.bank_cap)
    # The evaluator carries its sweep's plan, which fires only inside a
    # candidate: a post-sweep estimate consults it and nothing fires.
    assert consulted and all(p is plan for p in consulted)
    assert plan.fired == fired

    baseline = auto_dse(workloads.get("gemm", 16))
    assert report == baseline.report
    assert print_func(func_op) == print_func(baseline.func_op)
    assert result.payload() == baseline.payload()
