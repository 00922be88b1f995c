"""Campaign runner + ``repro fuzz`` CLI contract.

The load-bearing promises: campaigns are deterministic in ``--seed``,
time budgets stop cleanly with ``FUZ004``
(exit 0 -- running out of time is not a failure), and failing campaigns
exit 1 with repro scripts plus ``summary.json`` under ``--out``.
"""

import json

import numpy as np
import pytest

from repro.affine import compile as _compile
from repro.cli import main
from repro.diagnostics import DiagnosticEngine
from repro.fuzz import CampaignResult, FuzzOptions, run_campaign
from repro.fuzz.runner import plan_trials
from repro.isl import intern as _intern

pytestmark = pytest.mark.fuzz

_FAST = dict(workloads=("gemm", "bicg"), sizes=(8,))


class TestPlanning:
    def test_plan_is_deterministic(self):
        options = FuzzOptions(seed=11, trials=10, **_FAST)
        assert plan_trials(options) == plan_trials(options)

    def test_plan_round_robins_the_grid(self):
        options = FuzzOptions(seed=0, trials=4, **_FAST)
        assert [p[0] for p in plan_trials(options)] == [
            "gemm", "bicg", "gemm", "bicg",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(trials=0),
            dict(max_directives=0),
            dict(time_budget_s=-1.0),
            dict(workloads=()),
            dict(sizes=()),
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            FuzzOptions(**bad).validate()

    def test_jobs_is_no_option(self):
        with pytest.raises(TypeError):
            FuzzOptions(jobs=2)

    def test_validate_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload") as excinfo:
            FuzzOptions(workloads=("gemm", "nope")).validate()
        assert excinfo.value.diagnostic.code == "WLD001"


class TestCampaign:
    def test_clean_campaign_passes(self):
        campaign = run_campaign(FuzzOptions(seed=3, trials=6, **_FAST))
        assert campaign.trials_run == 6
        assert campaign.passed == 6
        assert not campaign.failures
        assert not campaign.budget_exhausted
        assert campaign.elapsed_s > 0

    def test_same_seed_same_results(self):
        first = run_campaign(FuzzOptions(seed=5, trials=8, **_FAST))
        second = run_campaign(FuzzOptions(seed=5, trials=8, **_FAST))
        assert [r.as_dict() for r in first.results] == [
            r.as_dict() for r in second.results
        ]

    def test_time_budget_stops_with_fuz004(self):
        engine = DiagnosticEngine()
        campaign = run_campaign(
            FuzzOptions(seed=1, trials=10_000, time_budget_s=1.0, **_FAST),
            engine=engine,
        )
        assert campaign.budget_exhausted
        assert campaign.trials_run < 10_000
        assert any(d.code == "FUZ004" for d in engine.warnings())

    def test_failing_campaign_writes_repro_and_summary(self, tmp_path, monkeypatch):
        class BadNp:
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, lo, hi):
                return np.arange(lo, max(lo, hi - 1))

        _intern.active().kernel_fns.clear()
        monkeypatch.setitem(_compile._GLOBALS, "_np", BadNp())
        try:
            campaign = run_campaign(
                FuzzOptions(
                    seed=0, trials=4, workloads=("gemm",), sizes=(8,),
                    out_dir=str(tmp_path),
                )
            )
        finally:
            _intern.active().kernel_fns.clear()
        assert campaign.mismatches
        assert campaign.repro_paths
        assert all(path.endswith(".py") for path in campaign.repro_paths)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mismatches"] == len(campaign.mismatches)
        assert summary["repro_scripts"] == campaign.repro_paths
        assert any(d.code == "FUZ001" for d in campaign.engine.errors())
        assert any(d.code == "FUZ003" for d in campaign.engine.diagnostics)

    def test_summary_dict_shape(self):
        campaign = run_campaign(FuzzOptions(seed=2, trials=2, **_FAST))
        summary = campaign.summary_dict()
        assert summary["seed"] == 2
        assert summary["trials_requested"] == 2
        assert summary["trials_run"] == 2
        assert summary["failures"] == []


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seed", "5", "--trials", "4",
            "--workloads", "gemm,bicg", "--sizes", "8",
            "--out", str(tmp_path), "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: seed=5 trials=4/4 passed=4" in out
        assert "trials per workload:" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] == 4

    def test_time_budget_is_not_a_failure(self, capsys):
        code = main([
            "fuzz", "--seed", "9", "--trials", "5000", "--time-budget", "1",
            "--workloads", "gemm", "--sizes", "8",
        ])
        assert code == 0
        assert "FUZ004" in capsys.readouterr().err

    def test_invalid_options_exit_with_message(self):
        with pytest.raises(SystemExit, match="trials"):
            main(["fuzz", "--trials", "0"])
        with pytest.raises(SystemExit, match="nope"):
            main(["fuzz", "--workloads", "nope"])

    def test_trace_export(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main([
            "fuzz", "--seed", "1", "--trials", "2",
            "--workloads", "gemm", "--sizes", "8",
            "--trace", str(trace_path),
        ])
        assert code == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(e.get("name") == "fuzz.campaign" for e in events)
        assert any(e.get("name") == "fuzz.trial" for e in events)

    def test_help_documents_unified_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--help"])
        out = capsys.readouterr().out
        for flag in ("--seed", "--trials", "--time-budget", "--stats"):
            assert flag in out
        assert "--jobs" not in out
