"""The chaos suite: deterministic fault injection through production paths.

The invariant under test (the issue's acceptance criterion): for every
workload, any fault plan plus a crash plus a resume yields the same best
design as a fault-free run.
"""

import pytest

from repro import workloads
from repro.diagnostics import DiagnosticError
from repro.faults import Fault, FaultPlan, FAULT_KINDS, InjectedCrash
from repro.workloads import polybench
from repro.workloads.stencils import seidel

from tests.dse.test_work_once import score_every_candidate
from tests.resilience.test_checkpoint_resume import fingerprint
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions

pytestmark = pytest.mark.resilience

WORKLOADS = {
    "gemm": lambda: polybench.gemm(16),
    "bicg": lambda: polybench.bicg(16),
    "gesummv": lambda: polybench.gesummv(16),
    "seidel": lambda: seidel(8, 2),
}


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        Fault("meteor", 0)
    with pytest.raises(ValueError):
        Fault("crash", -1)
    with pytest.raises(ValueError):
        Fault("transient", 0, count=0)
    with pytest.raises(ValueError):
        FaultPlan([Fault("crash", 1), Fault("crash", 1)])


def test_random_plans_are_reproducible_from_their_seed():
    a = FaultPlan.random(seed=7, candidates=20)
    b = FaultPlan.random(seed=7, candidates=20)
    assert a.faults == b.faults
    assert FaultPlan.random(seed=8, candidates=20).faults != a.faults


def test_transient_faults_are_retried_to_the_fault_free_result():
    baseline = polybench.gemm(16).auto_DSE()
    plan = FaultPlan([Fault("transient", 2, count=2)])
    result = polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan))
    assert plan.fired == [("transient", 2), ("transient", 2)]
    assert result.stats.estimator_retries == 2
    assert not result.quarantine
    assert fingerprint(result) == fingerprint(baseline)


def test_permanent_fault_quarantines_without_aborting():
    plan = FaultPlan([Fault("permanent", 3)])
    result = polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan))
    assert ("permanent", 3) in plan.fired
    assert result.quarantine
    assert all(q.diagnostic.code == "DSE001" for q in result.quarantine)
    assert result.degraded
    assert result.report.total_cycles > 0


def test_hung_candidate_is_quarantined_as_timeout():
    # Acceptance criterion: a hung candidate is quarantined with a timeout
    # diagnostic instead of aborting the sweep.
    plan = FaultPlan([Fault("hang", 3)])
    result = polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan, candidate_timeout_s=30.0))
    assert ("hang", 3) in plan.fired
    assert result.stats.timeouts == 1
    assert result.stats.timeout_s > 0
    timed_out = [q for q in result.quarantine if q.diagnostic.code == "DSE003"]
    assert len(timed_out) == 1
    assert timed_out[0].elapsed_s is not None
    assert result.report.total_cycles > 0  # the sweep still found a design


def _repeated_ordinals(monkeypatch, options):
    """Ordinals of a clean sweep whose candidate took the score of the
    design before it (a bank cap that derives the same banking)."""
    realize = Evaluator.realize
    lowered = []

    def recording(self, configs, bank_cap):
        before = self.stats.lowerings
        outcome = realize(self, configs, bank_cap)
        lowered.append(self.stats.lowerings > before)
        return outcome

    monkeypatch.setattr(Evaluator, "realize", recording)
    result = polybench.gemm(16).auto_DSE(options=options)
    monkeypatch.undo()
    return [o for o in range(result.stats.candidates) if not lowered[o]]


@pytest.mark.parametrize("kind", ["transient", "permanent", "hang"])
def test_estimator_faults_fire_where_a_candidate_repeats_the_design_before_it(kind, monkeypatch):
    """Such a candidate is scored without an estimate, but a fault
    scheduled at its ordinal still reaches the estimator: the sweep ends
    exactly as one that lowers and estimates every candidate."""
    options = dict(resource_fraction=0.25, objective="pareto", candidate_timeout_s=30.0)
    repeated = _repeated_ordinals(monkeypatch, DseOptions(**options))
    assert 5 in repeated

    def sweep():
        plan = FaultPlan([Fault(kind, 5)])
        result = polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan, **options))
        quarantined = [(q.diagnostic.code, q.bank_cap, q.parallelism) for q in result.quarantine]
        return plan.fired, quarantined, fingerprint(result), result.stats.estimator_retries

    outcome = sweep()
    score_every_candidate(monkeypatch)
    assert outcome == sweep()
    fired, quarantined, _, retries = outcome
    assert fired == [(kind, 5)]
    assert bool(quarantined) == (kind != "transient")
    assert retries == (kind == "transient")


def test_hang_without_a_deadline_is_a_harness_error():
    plan = FaultPlan([Fault("hang", 2)])
    with pytest.raises(ValueError, match="no candidate_timeout_s"):
        polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan))


def test_crash_fires_as_base_exception(tmp_path):
    journal = tmp_path / "gemm.jsonl"
    plan = FaultPlan([Fault("crash", 2)])
    with pytest.raises(InjectedCrash):
        polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), fault_plan=plan))
    assert ("crash", 2) in plan.fired


def test_crash_at_every_append_point_resumes_to_the_fault_free_best(tmp_path):
    # For each journal append a crash could follow, kill the run there and
    # resume fault-free: every prefix of the journal must reconstruct the
    # sweep to the identical best design.
    baseline = polybench.gemm(16).auto_DSE()
    total = baseline.stats.candidates
    assert total >= 5
    crash_points = 0
    for ordinal in range(total + 2):  # +2: past the end, crash never fires
        journal = tmp_path / f"crash_at_{ordinal}.jsonl"
        plan = FaultPlan([Fault("crash", ordinal)])
        try:
            result = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), fault_plan=plan))
        except InjectedCrash:
            crash_points += 1
            result = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
        assert fingerprint(result) == fingerprint(baseline), ordinal
    assert crash_points >= total


@pytest.mark.parametrize("name", ["gemm", "jacobi-2d"])
def test_a_crashed_sweep_resumes_on_the_same_function(name, tmp_path):
    # A crash leaves the function as the sweep found it (no candidate is
    # ever written on it), so resuming on the very same object passes the
    # journal's workload check and ends at the fault-free design.
    baseline = workloads.get(name, 64)
    clean = baseline.auto_DSE()
    total = clean.stats.candidates
    assert total >= 9
    for ordinal in range(total):
        journal = tmp_path / f"crash_at_{ordinal}.jsonl"
        function = workloads.get(name, 64)
        plan = FaultPlan([Fault("crash", ordinal)])
        with pytest.raises(InjectedCrash):
            function.auto_DSE(options=DseOptions(checkpoint=str(journal), fault_plan=plan))
        result = function.auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
        assert result.payload() == clean.payload(), ordinal
        assert function.codegen() == baseline.codegen(), ordinal


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_chaos_plus_crash_plus_resume_equals_fault_free(
    workload, seed, tmp_path
):
    # The chaos invariant, across workloads and seeds: inject a seeded mix
    # of faults (possibly crashing mid-sweep), then resume fault-free; the
    # final design must match the fault-free sweep bit for bit.
    build = WORKLOADS[workload]
    baseline = build().auto_DSE()
    journal = tmp_path / f"{workload}_{seed}.jsonl"
    plan = FaultPlan.random(seed=seed, candidates=12, rate=0.5)
    try:
        build().auto_DSE(options=DseOptions(checkpoint=str(journal), fault_plan=plan, candidate_timeout_s=30.0))
    except InjectedCrash:
        pass
    except DiagnosticError:
        # A permanent fault on the degree-1 baseline has no design to
        # degrade to; the journal still holds the quarantine record.
        pass
    result = build().auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(result) == fingerprint(baseline), (workload, seed)
    assert not result.quarantine


def test_corrupt_fault_mangles_the_line_but_not_the_run(tmp_path):
    baseline = polybench.gemm(16).auto_DSE()
    journal = tmp_path / "gemm.jsonl"
    plan = FaultPlan([Fault("corrupt", 1)])
    first = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), fault_plan=plan))
    assert ("corrupt", 1) in plan.fired
    # The in-memory sweep is unaffected by the mangled line...
    assert fingerprint(first) == fingerprint(baseline)
    # ...and resume skips it (DSE006) and re-evaluates that candidate.
    resumed = polybench.gemm(16).auto_DSE(options=DseOptions(checkpoint=str(journal), resume=True))
    assert fingerprint(resumed) == fingerprint(baseline)
    assert any(d.code == "DSE006" for d in resumed.diagnostics)
    assert resumed.stats.candidates >= 1


def test_fault_plan_is_uninstalled_after_the_sweep():
    from repro import faults

    plan = FaultPlan([Fault("permanent", 3)])
    polybench.gemm(16).auto_DSE(options=DseOptions(fault_plan=plan))
    assert faults.active() is None


def test_all_fault_kinds_are_exercised_by_some_seed():
    # Guards the chaos matrix itself: the seeds used above must cover every
    # fault kind, or a kind could silently stop being tested.
    kinds = set()
    for seed in (1, 2, 3):
        plan = FaultPlan.random(seed=seed, candidates=12, rate=0.5)
        kinds.update(fault.kind for fault in plan.faults)
    assert kinds == set(FAULT_KINDS)
