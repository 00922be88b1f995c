"""Structured failure records in the evaluation report harness."""

import pytest

import repro.evaluation.report_all as report_all
from repro.evaluation.frameworks import Experiment

pytestmark = pytest.mark.diagnostics


def _fake_experiments():
    def broken_run():
        raise RuntimeError("model exploded")

    return {
        "ok": Experiment(lambda: None, lambda _: "table data"),
        "broken": Experiment(broken_run, str),
    }


def test_failures_become_structured_records(monkeypatch):
    monkeypatch.setattr(report_all, "ALL_EXPERIMENTS", _fake_experiments())
    failures = []
    report = report_all.run_all(failures=failures)

    assert len(failures) == 1
    diagnostic = failures[0]
    assert diagnostic.code == "RPT001"
    assert "broken" in diagnostic.message
    assert "RuntimeError" in diagnostic.message
    assert "model exploded" in diagnostic.message
    assert diagnostic.location.function == "broken"

    # The failure is rendered in place and repeated in the summary.
    assert "error[RPT001]" in report
    assert "## summary" in report
    assert "1/2 experiments succeeded" in report
    # Successful output still present.
    assert "table data" in report


def test_all_green_summary(monkeypatch):
    experiments = _fake_experiments()
    del experiments["broken"]
    monkeypatch.setattr(report_all, "ALL_EXPERIMENTS", experiments)
    failures = []
    report = report_all.run_all(failures=failures)
    assert failures == []
    assert "1/1 experiments succeeded" in report
