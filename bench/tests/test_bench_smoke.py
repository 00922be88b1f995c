"""``--smoke`` end to end: every declared metric, nothing else, quickly."""

import json
import os
import subprocess
import sys
import time

import pytest

import compare
import oplist

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(*extra):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke", *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in declared}
    assert {n: v["unit"] for n, v in line["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_smoke_emits_exactly_the_end_to_end_metrics_in_under_a_minute():
    declared = compare.load_benchmark()["end_to_end"]
    started = time.monotonic()
    for workload in oplist.WORKLOADS:
        _check_line(_run("--workload", workload, "--seed", "5", "--trace", "0"), declared)
    assert time.monotonic() - started < 60.0


@pytest.mark.parametrize("workload", oplist.WORKLOADS)
def test_smoke_trace_emits_exactly_the_per_layer_metrics(workload):
    declared = compare.load_benchmark()["per_layer"]
    _check_line(_run("--workload", workload, "--seed", "5", "--trace", "1"), declared)


def test_benchmark_json_obeys_the_contract_limits():
    benchmark = compare.load_benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in benchmark["workloads"]] == list(oplist.WORKLOADS)
    assert benchmark["run_seconds"] == oplist.RUN_SECONDS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in benchmark["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert len(benchmark["per_layer"]) <= 128
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
