"""`repro dse --all`: one sweep per workload, in process and in order."""

import os
import random
import re

import pytest

from repro import cli, workloads
from repro.cli import ALL_WORKLOADS, main
from repro.dse import auto_dse, engine
from repro.dse.options import DseOptions
from repro.dse.stats import DseStats
from repro.faults import Fault, FaultPlan, InjectedCrash
from repro.trace import load_chrome_trace

SIZE = 16
LABELS = [f"{name}({SIZE})" for name in ALL_WORKLOADS]


def fingerprint(result):
    return (
        result.report.total_cycles,
        result.report.resources.dsp,
        result.report.resources.lut,
        result.report.resources.ff,
        result.tile_vectors(),
        [d.fingerprint() for d in result.schedule],
    )


def _run_all(capsys, *flags):
    rc = main(["dse", "--all", "--size", str(SIZE), *flags])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _workload_lines(out):
    return [line for line in out.splitlines() if " evaluations in " in line]


def _designs(text):
    return [
        (line.split(":")[0], line.split(", tiles ")[1])
        for line in _workload_lines(text)
    ]


def test_each_design_equals_a_standalone_sweep(capsys, monkeypatch):
    results = []
    real = engine.auto_dse

    def recording(function, options=None):
        result = real(function, options=options)
        results.append(result)
        return result

    monkeypatch.setattr(engine, "auto_dse", recording)
    rc, out, _ = _run_all(capsys)
    assert rc == 0
    assert [line.split(":")[0] for line in _workload_lines(out)] == LABELS
    assert len(results) == len(ALL_WORKLOADS)
    for name, result in zip(ALL_WORKLOADS, results):
        alone = real(workloads.get(name, SIZE))
        assert fingerprint(result) == fingerprint(alone), name
        assert result.evaluations == alone.evaluations, name


def test_merged_stats_equal_the_sum_of_the_workload_blocks(capsys):
    rc, out, _ = _run_all(capsys, "--stats")
    assert rc == 0
    evaluations = [int(m) for m in re.findall(r"evaluations\s+(\d+)", out)]
    # one block per workload, then the merge
    assert len(evaluations) == len(ALL_WORKLOADS) + 1
    assert evaluations[-1] == sum(evaluations[:-1])
    assert "merged (totals are the sum of the workloads above):" in out
    for label in LABELS:
        assert f"workload {label}:" in out


def test_checkpoint_dir_gets_one_journal_per_workload(tmp_path, capsys):
    directory = tmp_path / "journals"
    rc, _, _ = _run_all(capsys, "--checkpoint", str(directory))
    assert rc == 0
    assert set(os.listdir(directory)) == {
        f"{name}-{SIZE}.journal" for name in ALL_WORKLOADS
    }


def test_resume_after_an_injected_crash_gives_the_fault_free_designs(
    tmp_path, capsys
):
    _, clean, _ = _run_all(capsys)
    journal = tmp_path / f"gemm-{SIZE}.journal"
    crashing = DseOptions(
        checkpoint=str(journal), fault_plan=FaultPlan([Fault("crash", 2)])
    )
    with pytest.raises(InjectedCrash):
        auto_dse(workloads.get("gemm", SIZE), options=crashing)
    rc, out, _ = _run_all(capsys, "--resume", str(tmp_path), "--stats")
    assert rc == 0
    assert _designs(out) == _designs(clean)
    # gemm replayed what it journaled before the crash; the others had
    # no journal and started one.
    replayed = [int(m) for m in re.findall(r"replayed\s+(\d+)", out)]
    assert replayed[0] >= 1 and replayed[1:-1] == [0, 0, 0]
    assert len(os.listdir(tmp_path)) == len(ALL_WORKLOADS)


@pytest.mark.parametrize("seed", [3, 11])
def test_seeded_crashes_in_every_workload_resume_to_the_fault_free_designs(
    tmp_path, capsys, seed
):
    _, clean, _ = _run_all(capsys)
    for i, name in enumerate(ALL_WORKLOADS):
        ordinal = random.Random(seed + i).randrange(6)
        crashing = DseOptions(
            checkpoint=str(tmp_path / f"{name}-{SIZE}.journal"),
            fault_plan=FaultPlan([Fault("crash", ordinal)]),
        )
        with pytest.raises(InjectedCrash):
            auto_dse(workloads.get(name, SIZE), options=crashing)
    rc, out, _ = _run_all(capsys, "--resume", str(tmp_path), "--stats")
    assert rc == 0
    assert _designs(out) == _designs(clean)
    replayed = [int(m) for m in re.findall(r"replayed\s+(\d+)", out)]
    assert all(count >= 1 for count in replayed[:-1]), replayed


def test_checkpoint_without_resume_starts_every_journal_afresh(tmp_path, capsys):
    _, clean, _ = _run_all(capsys)
    crashing = DseOptions(
        checkpoint=str(tmp_path / f"gemm-{SIZE}.journal"),
        fault_plan=FaultPlan([Fault("crash", 2)]),
    )
    with pytest.raises(InjectedCrash):
        auto_dse(workloads.get("gemm", SIZE), options=crashing)
    rc, out, _ = _run_all(capsys, "--checkpoint", str(tmp_path), "--stats")
    assert rc == 0
    assert _designs(out) == _designs(clean)
    replayed = [int(m) for m in re.findall(r"replayed\s+(\d+)", out)]
    assert replayed == [0] * (len(ALL_WORKLOADS) + 1)


def test_quarantined_candidates_print_in_workload_order(capsys, monkeypatch):
    real = engine.auto_dse

    def faulty(function, options=None):
        plan = FaultPlan([Fault("permanent", 1)])
        return real(function, options=options.replace(fault_plan=plan))

    monkeypatch.setattr(engine, "auto_dse", faulty)
    rc, out, _ = _run_all(capsys, "--allow-degraded", "--stats")
    assert rc == 0
    quarantined = [
        line.split()[0] for line in out.splitlines() if " quarantined: " in line
    ]
    assert quarantined == LABELS
    assert "DSE001" in out
    counts = [int(m) for m in re.findall(r"quarantined\s+(\d+)", out)]
    assert counts == [1] * len(ALL_WORKLOADS) + [len(ALL_WORKLOADS)]


def test_a_failing_workload_prints_failed_and_the_others_still_run(
    capsys, monkeypatch
):
    monkeypatch.setattr(cli, "ALL_WORKLOADS", ("gemm", "no-such-workload", "bicg"))
    rc, out, err = _run_all(capsys)
    assert rc == 2
    assert f"no-such-workload({SIZE}): FAILED: " in err
    assert [line.split(":")[0] for line in _workload_lines(out)] == [
        f"gemm({SIZE})", f"bicg({SIZE})",
    ]


def test_an_interrupt_stops_the_remaining_workloads(tmp_path, capsys, monkeypatch):
    """One Ctrl-C stops the whole run, not just the sweep it lands in."""
    real = engine._pick_bottleneck
    calls = {"n": 0}

    def interrupting(graph, latencies, active):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real(graph, latencies, active)

    monkeypatch.setattr(engine, "_pick_bottleneck", interrupting)
    directory = tmp_path / "ck"
    rc, out, err = _run_all(capsys, "--checkpoint", str(directory))
    assert rc == 130
    assert [line.split(":")[0] for line in _workload_lines(out)] == LABELS[:1]
    assert "sweep interrupted" in err
    assert f"--all --size {SIZE} --resume {directory}" in err


def test_an_interrupt_in_the_baseline_exits_130_with_a_resume_hint(
    tmp_path, capsys, monkeypatch
):
    """Ctrl-C during the degree-1 baseline escapes the search loop; the
    run still exits 130, writes its trace and names how to resume."""
    real = engine._evaluate
    calls = {"n": 0}

    def interrupting(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_evaluate", interrupting)
    directory, trace = tmp_path / "ck", tmp_path / "all.json"
    rc, out, err = _run_all(
        capsys, "--checkpoint", str(directory), "--trace", str(trace)
    )
    assert rc == 130
    assert _workload_lines(out) == []
    assert "interrupted before a best design was found" in err
    assert f"checkpoint directory: {directory}" in err
    assert (
        f"resume with: python -m repro dse --all --size {SIZE} --resume {directory}"
        in err
    )
    assert trace.exists()


def test_a_spent_budget_degrades_to_exit_3(capsys):
    assert _run_all(capsys, "--time-budget", "0")[0] == 3
    assert _run_all(capsys, "--time-budget", "0", "--allow-degraded")[0] == 0


def test_pareto_frontiers_equal_the_single_workload_runs(capsys):
    def frontier_rows(out):
        return [
            line.strip()
            for line in out.splitlines()
            if "pareto frontier" in line or "cycles=" in line
        ]

    rc, out, _ = _run_all(capsys, "--pareto")
    assert rc == 0
    singles = []
    for name in ALL_WORKLOADS:
        assert main(["dse", name, "--size", str(SIZE), "--pareto"]) == 0
        singles += frontier_rows(capsys.readouterr().out)
    assert frontier_rows(out) == singles


def test_trace_records_one_sweep_span_per_workload(tmp_path, capsys):
    """One track, one ``dse.auto_dse`` span per workload, and the trace's
    evaluation counter equals the printed per-workload evaluations."""
    out = tmp_path / "all.json"
    rc, printed, _ = _run_all(capsys, "--trace", str(out))
    assert rc == 0
    evaluations = [int(m) for m in re.findall(r"(\d+) evaluations in ", printed)]
    assert len(evaluations) == len(ALL_WORKLOADS)
    payload = load_chrome_trace(str(out))
    events = payload["traceEvents"]
    assert [e["args"]["name"] for e in events if e["ph"] == "M"] == ["main"]
    names = [e["name"] for e in events if e["ph"] == "X"]
    assert names.count("dse.auto_dse") == len(ALL_WORKLOADS)
    counters = payload["otherData"]["metrics"]["counters"]
    assert counters["dse.evaluations"] == sum(evaluations)


def test_stats_merge_unit_semantics():
    a = DseStats(cache_enabled=True)
    a.evaluations, a.total_s = 3, 1.5
    a.interrupted = True
    a.isl_counters = {"bounds": (10, 2), "emptiness": (1, 1)}
    b = DseStats(cache_enabled=False)
    b.evaluations, b.total_s = 5, 0.25
    b.time_budget_hit = True
    b.isl_counters = {"bounds": (5, 5)}
    merged = DseStats.merge([a, b])
    assert merged.evaluations == 8
    assert merged.total_s == pytest.approx(1.75)
    assert merged.cache_enabled is False      # all()
    assert merged.interrupted is True         # any()
    assert merged.time_budget_hit is True     # any()
    assert merged.isl_counters == {"bounds": (15, 7), "emptiness": (1, 1)}


def test_stats_merge_of_nothing_is_the_default():
    merged = DseStats.merge([])
    assert merged.evaluations == 0
    assert merged.cache_enabled is True  # all() over nothing
    assert merged.isl_counters == {}
