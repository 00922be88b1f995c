"""The report_all harness: structure, failure capture, tracing."""

import re

import pytest

from repro import trace
from repro.evaluation import report_all
from repro.trace import load_chrome_trace
from repro.workloads import polybench


class _FakeExperiment:
    @staticmethod
    def main(**kwargs):
        polybench.gemm(8).estimate()
        print("fake experiment output")


class _FailingExperiment:
    @staticmethod
    def main(**kwargs):
        raise RuntimeError("synthetic experiment failure")


@pytest.fixture
def fake_experiments(monkeypatch):
    monkeypatch.setattr(
        report_all, "ALL_EXPERIMENTS", {"fake": _FakeExperiment}
    )


def _stable(report):
    """The report minus per-run timing lines."""
    return re.sub(r"\[.*: \d+\.\d+s\]", "[elapsed]", report)


class TestRunAll:
    def test_report_structure(self, fake_experiments):
        report = report_all.run_all()
        assert "## fake" in report
        assert "fake experiment output" in report
        assert "1/1 experiments succeeded" in report

    def test_failure_becomes_rpt001(self, monkeypatch):
        monkeypatch.setattr(
            report_all, "ALL_EXPERIMENTS", {"bad": _FailingExperiment}
        )
        failures = []
        report = report_all.run_all(failures=failures)
        assert "0/1 experiments succeeded" in report
        assert len(failures) == 1
        assert failures[0].code == "RPT001"
        assert "synthetic experiment failure" in failures[0].message


class TestTracing:
    def test_tracer_adopts_one_track_per_experiment(self, fake_experiments):
        tracer = trace.Tracer()
        report_all.run_all(trace=tracer)
        assert tracer.thread_names == {1: "experiment fake"}
        assert any(s.category == "hls" for s in tracer.spans)
        assert all(s.tid == 1 for s in tracer.spans)

    def test_trace_path_writes_chrome_json(self, fake_experiments, tmp_path):
        path = tmp_path / "report.json"
        report_all.run_all(trace=str(path))
        payload = load_chrome_trace(str(path))
        names = [
            e["args"]["name"] for e in payload["traceEvents"] if e["ph"] == "M"
        ]
        assert "experiment fake" in names

    def test_report_identical_with_and_without_tracing(self, fake_experiments):
        untraced = report_all.run_all()
        with_trace = report_all.run_all(trace=trace.Tracer())
        assert _stable(untraced) == _stable(with_trace)

    def test_experiments_do_not_leak_into_an_active_tracer(
        self, fake_experiments
    ):
        # run_all(trace=None) must not record into an ambient tracer:
        # experiments install their own local tracer (or none at all).
        with trace.tracing() as ambient:
            report_all.run_all()
        assert ambient.spans == []


@pytest.mark.parallel
class TestWorkerProcesses:
    def test_jobs_2_reports_what_one_process_reports(self, monkeypatch):
        monkeypatch.setattr(
            report_all,
            "ALL_EXPERIMENTS",
            {"first": _FakeExperiment, "bad": _FailingExperiment,
             "last": _FakeExperiment},
        )
        in_process = report_all.run_all()
        tracer = trace.Tracer()
        failures = []
        pooled = report_all.run_all(jobs=2, trace=tracer, failures=failures)
        assert _stable(pooled) == _stable(in_process)
        assert [d.code for d in failures] == ["RPT001"]
        # Worker traces are adopted in declaration order, one track each.
        assert tracer.thread_names[1] == "experiment first"
        assert tracer.thread_names[3] == "experiment last"
