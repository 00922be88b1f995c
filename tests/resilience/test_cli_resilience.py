"""CLI contract: exit codes for degraded/interrupted sweeps, resume hints."""

import pytest

import repro.dse.engine as engine_mod
import repro.dse.evaluator as evaluator_mod
from repro.cli import main
from repro.workloads import polybench
from repro.dse.options import DseOptions

pytestmark = pytest.mark.resilience


def _sabotage_degree_4(monkeypatch):
    original = evaluator_mod.plan_node_config

    def sabotaged(plan, name, degree):
        if degree >= 4:
            raise RuntimeError("synthetic failure at degree 4")
        return original(plan, name, degree)

    monkeypatch.setattr(evaluator_mod, "plan_node_config", sabotaged)


def test_degraded_sweep_exits_nonzero(monkeypatch, capsys):
    _sabotage_degree_4(monkeypatch)
    rc = main(["dse", "gemm", "--size", "16"])
    assert rc == 3
    assert "--allow-degraded" in capsys.readouterr().err


def test_allow_degraded_accepts_the_best_design(monkeypatch, capsys):
    _sabotage_degree_4(monkeypatch)
    rc = main(["dse", "gemm", "--size", "16", "--allow-degraded"])
    assert rc == 0
    assert "quarantined" in capsys.readouterr().out


def test_clean_sweep_exits_zero(capsys):
    rc = main(["dse", "gemm", "--size", "16"])
    assert rc == 0
    assert "auto-DSE of gemm" in capsys.readouterr().out


def test_interrupt_prints_journal_path_and_resume_hint(
    monkeypatch, capsys, tmp_path
):
    journal = tmp_path / "gemm.jsonl"
    original = engine_mod._pick_bottleneck
    calls = {"n": 0}

    def interrupting(graph, latencies, active):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        return original(graph, latencies, active)

    monkeypatch.setattr(engine_mod, "_pick_bottleneck", interrupting)
    rc = main(["dse", "gemm", "--size", "16", "--checkpoint", str(journal)])
    assert rc == 130
    err = capsys.readouterr().err
    assert str(journal) in err
    assert "--resume" in err


def test_resume_flag_replays_and_reports(capsys, tmp_path):
    journal = tmp_path / "gemm.jsonl"
    assert main(["dse", "gemm", "--size", "16", "--checkpoint", str(journal)]) == 0
    capsys.readouterr()
    rc = main(["dse", "gemm", "--size", "16", "--resume", str(journal)])
    assert rc == 0
    assert "replayed" in capsys.readouterr().out


def test_stale_resume_exits_with_diagnostic(capsys, tmp_path):
    journal = tmp_path / "gemm.jsonl"
    assert main(["dse", "gemm", "--size", "16", "--checkpoint", str(journal)]) == 0
    capsys.readouterr()
    rc = main(["dse", "gemm", "--size", "32", "--resume", str(journal)])
    assert rc == 2
    assert "DSE005" in capsys.readouterr().err


def test_candidate_timeout_flag_threads_to_the_engine(monkeypatch):
    seen = {}
    original = engine_mod.auto_dse

    def spy(function, options=None, **kwargs):
        seen["options"] = options
        return original(function, options=options, **kwargs)

    monkeypatch.setattr(engine_mod, "auto_dse", spy)
    rc = main([
        "dse", "gemm", "--size", "16",
        "--candidate-timeout", "30", "--time-budget", "600",
    ])
    assert rc == 0
    options = seen["options"]
    assert isinstance(options, DseOptions)
    assert options.candidate_timeout_s == 30.0
    assert options.time_budget_s == 600.0


def test_time_budget_degrades_gracefully():
    # A zero wall-clock budget expires before the first ladder step: the
    # sweep must stop at the degree-1 baseline, flagged as degraded.
    result = polybench.gemm(16).auto_DSE(options=DseOptions(time_budget_s=0.0))
    assert result.stats.time_budget_hit
    assert result.degraded
    assert any(d.code == "DSE004" for d in result.diagnostics)
    assert result.report.total_cycles > 0
