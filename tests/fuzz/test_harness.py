"""Differential harness tests: detection, attribution, shrinking, repro.

The fuzzer's job is to catch bugs in the simulator or the transformation
pipeline, so these tests *inject* one -- a corrupted ``arange`` in the
compiled kernels' exec namespace that silently drops each grid's last
iteration -- and assert the whole failure path works: the differential
check flags the mismatch, the interpreter-based oracle blames the
compiled simulator, the shrinker minimizes the schedule, and the
emitted repro script exits 0 in a clean process (where the bug is gone).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.affine import compile as _compile
from repro.fuzz import run_trial, shrink_failure, write_repro_script
from repro.dsl.serialize import schedule_to_dict
from repro.fuzz.harness import (
    TrialResult,
    _differential,
    _schedule_target,
    _scheduled_stage,
    build_workload,
    check_schedule,
    draw_schedule,
    replay,
    workload_factory,
)
from repro.fuzz.runner import FuzzOptions, plan_trials
from repro.isl import intern as _intern

pytestmark = pytest.mark.fuzz

_EMPTY = {"directives": [], "partitions": {}}


class _BadNp:
    """numpy shim whose arange silently drops the last grid point."""

    def __getattr__(self, name):
        return getattr(np, name)

    def arange(self, lo, hi):
        return np.arange(lo, max(lo, hi - 1))


@pytest.fixture
def corrupted_sim(monkeypatch):
    """Break every vectorized kernel compiled while the fixture is live."""
    _intern.active().kernel_fns.clear()
    monkeypatch.setitem(_compile._GLOBALS, "_np", _BadNp())
    yield
    # Kernels compiled against the bad namespace captured it; drop them.
    _intern.active().kernel_fns.clear()


class TestWorkloadLookup:
    def test_factory_by_name(self):
        function = build_workload("gemm", 8)
        assert function.name == "gemm"

    def test_unknown_name_raises(self):
        from repro.diagnostics import DiagnosticError

        with pytest.raises(ValueError, match="unknown workload") as excinfo:
            workload_factory("nope")
        assert isinstance(excinfo.value, DiagnosticError)
        assert excinfo.value.diagnostic.code == "WLD001"


class TestCleanTrials:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trials_pass_on_healthy_tree(self, seed):
        result = run_trial("gemm", 8, seed)
        assert result.kind == "pass", result.as_dict()
        assert result.ok
        assert "directives" in result.schedule

    def test_trial_is_deterministic(self):
        assert run_trial("bicg", 8, 7).as_dict() == run_trial("bicg", 8, 7).as_dict()

    def test_check_schedule_empty(self):
        assert check_schedule("gemm", 8, 0, _EMPTY)

    def test_result_roundtrips_to_dict(self):
        d = run_trial("gemm", 8, 3).as_dict()
        assert d["workload"] == "gemm" and d["kind"] == "pass"


class TestInjectedBug:
    def test_differential_detects_and_blames_sim(self, corrupted_sim):
        kind, mismatched, oracle, stage, error = _differential("gemm", 8, 0, _EMPTY)
        assert kind == "mismatch"
        assert mismatched == ["A"]  # gemm accumulates into A
        # The tree-walking interpreter agrees with the reference, so the
        # compiled simulator is the suspect.
        assert oracle == "sim"
        assert stage is None and error is None

    def test_run_trial_records_failure(self, corrupted_sim):
        failures = []
        for seed in range(10):
            result = run_trial("gemm", 8, seed)
            if result.kind == "mismatch":
                failures.append(result)
        assert failures, "injected bug never surfaced across 10 trials"
        assert all(r.oracle == "sim" for r in failures)

    def test_shrink_minimizes_schedule(self, corrupted_sim):
        result = next(
            r for s in range(10) if (r := run_trial("gemm", 8, s)).kind == "mismatch"
        )
        minimized = shrink_failure(result)
        assert len(minimized["directives"]) <= len(result.schedule["directives"])
        # The injected bug fires with no schedule at all, so greedy
        # removal should strip everything.
        assert minimized["directives"] == []
        assert minimized["partitions"] == {}

    def test_replay_reproduces_in_process(self, corrupted_sim):
        payload = {"workload": "gemm", "size": 8, "seed": 0, "schedule": _EMPTY}
        assert replay(payload) == 1

    def test_repro_script_passes_in_clean_process(self, corrupted_sim, tmp_path):
        result = TrialResult(
            "gemm", 8, 0, "mismatch",
            schedule=_EMPTY, mismatch_arrays=["A"], oracle="sim",
        )
        path = str(tmp_path / "repro-case.py")
        write_repro_script(result, path)
        assert os.path.exists(path)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, path], capture_output=True, text=True, env=env
        )
        # The corruption lives only in this process; a clean interpreter
        # sees the differential check pass and exits 0.
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passes" in proc.stdout

    def test_repro_script_prefers_minimized_schedule(self, tmp_path):
        result = TrialResult(
            "gemm", 8, 0, "mismatch",
            schedule={"directives": [{"kind": "bogus"}], "partitions": {}},
            minimized=_EMPTY,
        )
        path = str(tmp_path / "repro-case.py")
        write_repro_script(result, path)
        with open(path) as handle:
            assert "bogus" not in handle.read()


class TestShrinkUnderBlowup:
    """A reduced schedule whose preflight raises ``EliminationBlowup``
    (ISL001) is a rejected reduction, not a crash of the campaign."""

    @pytest.fixture
    def blowup(self, monkeypatch):
        from repro.fuzz import harness
        from repro.isl.constraint import EliminationBlowup

        def raising(*args, **kwargs):
            raise EliminationBlowup("injected elimination blowup", code="ISL001")

        monkeypatch.setattr(harness, "preflight_schedule", raising)

    @staticmethod
    def _failure():
        result = next(
            r for s in range(10)
            if len((r := run_trial("gemm", 8, s)).schedule["directives"]) >= 2
        )
        return TrialResult(
            "gemm", 8, result.seed, "mismatch",
            schedule=result.schedule, mismatch_arrays=["A"], oracle="sim",
        )

    @staticmethod
    def _unreduced(result):
        return {key: result.schedule[key] for key in ("directives", "partitions")}

    def test_shrink_keeps_the_unreduced_schedule(self, blowup):
        result = self._failure()
        assert shrink_failure(result) == self._unreduced(result)

    def test_campaign_still_writes_summary_and_repro(self, blowup, tmp_path):
        from repro.diagnostics import DiagnosticEngine
        from repro.fuzz import CampaignResult, FuzzOptions
        from repro.fuzz.runner import _report_failures

        result = self._failure()
        campaign = CampaignResult(
            FuzzOptions(seed=0, trials=1, out_dir=str(tmp_path)), results=[result]
        )
        _report_failures(campaign, DiagnosticEngine())
        assert result.minimized == self._unreduced(result)
        assert (tmp_path / "summary.json").exists()
        assert campaign.repro_paths and os.path.exists(campaign.repro_paths[0])


class TestDataflowTrials:
    @pytest.mark.parametrize("name", ["image-pipeline", "conv-block"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_trials_pass_on_healthy_tree(self, name, seed):
        result = run_trial(name, 8, seed)
        assert result.kind == "pass", result.as_dict()
        # Dataflow trials mutate one named stage of the design.
        assert result.schedule["stage"] in build_workload(name, 8).stages

    def test_trial_is_deterministic(self):
        assert (
            run_trial("image-pipeline", 8, 9).as_dict()
            == run_trial("image-pipeline", 8, 9).as_dict()
        )

    def test_injected_bug_blames_sim(self, corrupted_sim):
        failures = []
        for seed in range(10):
            result = run_trial("conv-block", 8, seed)
            if result.kind == "mismatch":
                failures.append(result)
        assert failures, "injected bug never surfaced across 10 trials"
        assert all(r.oracle == "sim" for r in failures)

    def test_shrink_preserves_the_stage_key(self, corrupted_sim):
        result = next(
            r for s in range(10)
            if (r := run_trial("conv-block", 8, s)).kind == "mismatch"
        )
        minimized = shrink_failure(result)
        assert minimized["stage"] == result.schedule["stage"]
        assert len(minimized["directives"]) <= len(
            result.schedule["directives"]
        )


@pytest.mark.perfsmoke
@pytest.mark.parametrize("name", ["gemm", "image-pipeline"])
def test_perfsmoke_a_trial_builds_its_workload_once(monkeypatch, name):
    from repro import workloads

    real_get = workloads.get
    builds = []

    def counting_get(*args, **kwargs):
        builds.append(args)
        return real_get(*args, **kwargs)

    monkeypatch.setattr(workloads, "get", counting_get)
    assert run_trial(name, 8, 1).kind == "pass"
    # The build that draws the schedule is the one both sides run.
    assert len(builds) == 1


def test_every_trial_dict_replays_on_a_fresh_build():
    """A trial checks the workload its schedule was drawn on; shrinking,
    ``check_schedule`` and repro scripts rebuild it from the trial's
    dict.  Over the seed-0 campaign the two agree: the dict applied to a
    fresh build serializes back to itself, and the replay passes."""
    for workload, size, seed, max_directives in plan_trials(FuzzOptions(seed=0, trials=200)):
        drawn, schedule = draw_schedule(workload, size, seed, max_directives)
        stage = schedule.get("stage")
        fresh = _scheduled_stage(build_workload(workload, size), schedule)
        serialized = {key: value for key, value in schedule.items() if key != "stage"}
        assert schedule_to_dict(fresh) == serialized
        assert schedule_to_dict(_schedule_target(drawn, stage)) == serialized
        assert check_schedule(workload, size, seed, schedule), (workload, size, seed)


class TestReplayVerdicts:
    def test_passing_payload_exits_zero(self, capsys):
        payload = {"workload": "gemm", "size": 8, "seed": 0, "schedule": _EMPTY}
        assert replay(payload) == 0
        assert "passes" in capsys.readouterr().out

    def test_invalid_schedule_reports_crash(self, capsys):
        payload = {
            "workload": "gemm",
            "size": 8,
            "seed": 0,
            "schedule": {"directives": [{"kind": "warp"}], "partitions": {}},
        }
        assert replay(payload) == 1
        assert "crash" in capsys.readouterr().out
