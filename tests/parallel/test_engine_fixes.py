"""Regression tests for the timing/retry bugfix round.

* the estimator retry backoff must not sleep through the per-candidate
  or whole-sweep deadlines;
* backoff wall time is attributed to ``stats.retry_backoff_s``, never
  inflated into ``stats.estimation_s``;
* ``auto_dse``'s early-raise paths never leave a created-but-unusable
  checkpoint journal behind;
* ``QuarantinedCandidate`` elapsed-time accounting.
"""

import re
import time

import pytest

from repro.diagnostics import DiagnosticError
from repro.dse import auto_dse
from repro.dse.checkpoint import CheckpointJournal, make_header
from repro.dse.evaluator import _backoff_sleep
from repro.faults import Fault, FaultPlan
from repro.hls.device import DEFAULT_DEVICE
from repro.util.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.workloads import polybench
from repro.dse.options import DseOptions

pytestmark = pytest.mark.parallel


class TestDeadlineAwareBackoff:
    def test_backoff_raises_at_the_candidate_deadline(self):
        deadline = Deadline(0.05)
        start = time.perf_counter()
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded):
                _backoff_sleep(30.0)
        assert time.perf_counter() - start < 5.0

    def test_backoff_yields_at_the_sweep_deadline_without_raising(self):
        sweep = Deadline(0.05)
        start = time.perf_counter()
        slept = _backoff_sleep(30.0, sweep_deadline=sweep)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert slept <= elapsed

    def test_backoff_sleeps_the_full_duration_without_deadlines(self):
        start = time.perf_counter()
        slept = _backoff_sleep(0.08)
        elapsed = time.perf_counter() - start
        assert 0.08 <= slept <= elapsed

    def test_backoff_reports_the_wall_time_of_naps_that_wake_late(self, monkeypatch):
        """Summing the requested naps reads 0.068 s here: each late wake
        shortens the next nap, and the lateness went unreported."""
        sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda seconds: sleep(seconds + 0.002))
        start = time.perf_counter()
        slept = _backoff_sleep(0.08)
        elapsed = time.perf_counter() - start
        assert 0.08 <= slept <= elapsed

    def test_retry_backoff_respects_candidate_timeout(self, monkeypatch):
        """The old code slept RETRY_BACKOFF_S * 2**attempt unconditionally:
        with a huge backoff the candidate watchdog must still fire on
        time, quarantining the candidate as a DSE003 timeout."""
        monkeypatch.setattr("repro.dse.evaluator.RETRY_BACKOFF_S", 30.0)
        plan = FaultPlan([Fault("transient", 1, count=1)])
        start = time.perf_counter()
        result = auto_dse(polybench.gemm(16), options=DseOptions(fault_plan=plan, candidate_timeout_s=0.2))
        assert time.perf_counter() - start < 10.0
        assert result.stats.timeouts == 1
        timeout = next(
            q for q in result.quarantine if q.diagnostic.code == "DSE003"
        )
        assert timeout.elapsed_s is not None
        assert timeout.elapsed_s >= 0.2
        assert result.stats.timeout_s == pytest.approx(
            sum(
                q.elapsed_s
                for q in result.quarantine
                if q.diagnostic.code == "DSE003"
            )
        )

    def test_retry_backoff_respects_sweep_time_budget(self, monkeypatch):
        """With no candidate watchdog, the backoff must still give up at
        the whole-sweep budget so DSE004 degradation fires on time."""
        monkeypatch.setattr("repro.dse.evaluator.RETRY_BACKOFF_S", 30.0)
        plan = FaultPlan([Fault("transient", 1, count=1)])
        start = time.perf_counter()
        result = auto_dse(polybench.gemm(16), options=DseOptions(fault_plan=plan, time_budget_s=0.3))
        assert time.perf_counter() - start < 10.0
        assert result.stats.time_budget_hit
        assert "DSE004" in [d.code for d in result.diagnostics]
        assert result.report.total_cycles > 0  # degraded to a real design


class TestBackoffAttribution:
    def test_backoff_is_excluded_from_estimation_time(self, monkeypatch):
        """The backoff sleep used to be folded into stats.estimation_s by
        the finally-timer; it must land in stats.retry_backoff_s only."""
        monkeypatch.setattr("repro.dse.evaluator.RETRY_BACKOFF_S", 0.3)
        plan = FaultPlan([Fault("transient", 1, count=1)])
        result = auto_dse(polybench.gemm(16), options=DseOptions(fault_plan=plan))
        assert result.stats.estimator_retries == 1
        assert result.stats.retry_backoff_s >= 0.25
        # gemm(16) estimation is milliseconds; with the old bug the
        # 0.3s backoff would dominate estimation_s.
        assert result.stats.estimation_s < result.stats.retry_backoff_s
        assert "retry backoff" in result.stats.summary()

    def test_no_retries_means_no_backoff_attribution(self):
        result = auto_dse(polybench.gemm(16))
        assert result.stats.estimator_retries == 0
        assert result.stats.retry_backoff_s == 0.0


class TestNoStrayJournalOnEarlyRaise:
    """Every argument-validation raise must fire before journal creation."""

    def _assert_no_journal(self, path):
        assert not path.exists(), "early raise left a stray journal behind"

    def test_negative_time_budget(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError):
            auto_dse(polybench.gemm(16), options=DseOptions(checkpoint=str(journal), time_budget_s=-1.0))
        self._assert_no_journal(journal)

    def test_negative_candidate_timeout(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError):
            auto_dse(polybench.gemm(16), options=DseOptions(checkpoint=str(journal), candidate_timeout_s=-0.5))
        self._assert_no_journal(journal)

    def test_bad_max_parallelism(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError):
            auto_dse(polybench.gemm(16), options=DseOptions(checkpoint=str(journal), max_parallelism=0))
        self._assert_no_journal(journal)

    def test_hang_plan_without_watchdog(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError):
            auto_dse(polybench.gemm(16), options=DseOptions(checkpoint=str(journal), fault_plan=FaultPlan([Fault("hang", 1)])))
        self._assert_no_journal(journal)

    def test_resume_without_checkpoint_path(self):
        with pytest.raises(DiagnosticError) as info:
            auto_dse(polybench.gemm(16), options=DseOptions(resume=True))
        assert info.value.code == "DSE005"

    def test_journal_discard_removes_the_file(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        function = polybench.gemm(16)
        header = make_header(function, DEFAULT_DEVICE, 1.0, 10.0, 256, False)
        journal = CheckpointJournal.create(str(path), header)
        assert path.exists()
        journal.discard()
        assert not path.exists()
        journal.discard()  # idempotent


class TestQuarantineElapsedAccounting:
    def test_timeout_quarantine_carries_elapsed_time(self):
        plan = FaultPlan([Fault("hang", 1)])
        result = auto_dse(polybench.gemm(16), options=DseOptions(fault_plan=plan, candidate_timeout_s=0.5))
        timeouts = [q for q in result.quarantine if q.diagnostic.code == "DSE003"]
        assert len(timeouts) == 1
        assert timeouts[0].elapsed_s is not None
        assert timeouts[0].elapsed_s >= 0.0
        assert re.sub(r"\d+\.\d+s", "<t>s", timeouts[0].diagnostic.message) == (
            "candidate evaluation timed out after <t>s (budget <t>s)"
        )
        assert result.stats.timeouts == 1
        assert result.stats.timeout_s == pytest.approx(timeouts[0].elapsed_s)

    def test_non_timeout_quarantine_has_no_elapsed(self):
        plan = FaultPlan([Fault("permanent", 1)])
        result = auto_dse(polybench.gemm(16), options=DseOptions(fault_plan=plan))
        assert len(result.quarantine) == 1
        candidate = result.quarantine[0]
        assert candidate.diagnostic.code == "DSE001"
        assert candidate.elapsed_s is None
        assert result.stats.timeout_s == 0.0
        assert str(candidate) == candidate.diagnostic.oneline()
