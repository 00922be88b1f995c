"""Fault-tolerant DSE: quarantine, retries, preflight, graceful degradation."""

import pytest

import repro.dse.evaluator as evaluator_mod
from repro.diagnostics import DiagnosticError
from repro.hls.estimator import HlsEstimator, TransientEstimatorError
from repro.workloads import polybench
from repro.workloads.stencils import seidel
from repro.dse.options import DseOptions

pytestmark = pytest.mark.diagnostics


def test_illegal_existing_schedule_rejected_at_preflight():
    # Acceptance criterion: an interchange across seidel-2d's loop-carried
    # dependence is rejected before any lowering, with a diagnostic that
    # names the dependence.
    f = seidel(8, 2)
    f.get_compute("S").interchange("t", "j")
    with pytest.raises(DiagnosticError) as info:
        f.auto_DSE(options=DseOptions(keep_existing_schedule=True))
    assert info.value.code == "LEG001"
    assert "carried" in str(info.value) and "A" in str(info.value)


def test_failing_candidates_are_quarantined_not_fatal(monkeypatch):
    # Sabotage every degree-4 node config: the search must complete,
    # quarantine the failures, and return the best design reachable
    # without them -- identical to an honest search capped at degree 2.
    original = evaluator_mod.plan_node_config

    def sabotaged(plan, name, degree):
        if degree >= 4:
            raise RuntimeError("synthetic failure at degree 4")
        return original(plan, name, degree)

    monkeypatch.setattr(evaluator_mod, "plan_node_config", sabotaged)
    result = polybench.gemm(16).auto_DSE()

    assert result.quarantine, "failed candidates must be recorded"
    assert result.stats.quarantined == len(result.quarantine)
    for candidate in result.quarantine:
        diagnostic = candidate.diagnostic
        assert diagnostic.code == "DSE001"
        assert "synthetic failure" in diagnostic.message
        assert any(degree >= 4 for degree in candidate.parallelism.values())
    assert any(d.code == "DSE001" for d in result.diagnostics)

    monkeypatch.setattr(evaluator_mod, "plan_node_config", original)
    capped = polybench.gemm(16).auto_DSE(options=DseOptions(max_parallelism=2))
    assert result.report.total_cycles == capped.report.total_cycles


def test_transient_estimator_failures_are_retried(monkeypatch):
    baseline = polybench.gemm(16).auto_DSE()

    original = HlsEstimator.estimate
    state = {"remaining": 2}

    def flaky(self, func_op):
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise TransientEstimatorError("licence hiccup")
        return original(self, func_op)

    monkeypatch.setattr(HlsEstimator, "estimate", flaky)
    result = polybench.gemm(16).auto_DSE()

    assert result.stats.estimator_retries == 2
    assert not result.quarantine
    assert result.report.total_cycles == baseline.report.total_cycles


def test_persistent_estimator_failure_becomes_dse002(monkeypatch):
    def dead(self, func_op):
        raise TransientEstimatorError("licence server down")

    monkeypatch.setattr(HlsEstimator, "estimate", dead)
    # Even the degree-1 baseline fails: there is no legal design to
    # degrade to, so the error surfaces -- as a diagnostic, not a
    # TransientEstimatorError traceback.
    with pytest.raises(DiagnosticError) as info:
        polybench.gemm(16).auto_DSE()
    assert info.value.code == "DSE002"
    assert "licence server down" in str(info.value)


def test_quarantine_counts_reported_in_stats_summary(monkeypatch):
    original = evaluator_mod.plan_node_config

    def sabotaged(plan, name, degree):
        if degree >= 4:
            raise RuntimeError("synthetic failure")
        return original(plan, name, degree)

    monkeypatch.setattr(evaluator_mod, "plan_node_config", sabotaged)
    result = polybench.gemm(16).auto_DSE()
    summary = result.stats.summary()
    assert "quarantined" in summary
    assert f"quarantined        {result.stats.quarantined}" in summary
