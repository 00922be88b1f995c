"""Sharded sweeps: worker-process isolation with a deterministic merge."""

import os
import re

import pytest

from repro.cli import main
from repro.dse import auto_dse
from repro.dse.parallel import (
    DEFAULT_SWEEP,
    ShardSpec,
    build_workload,
    default_sweep_specs,
    run_sharded_sweep,
    shard_journal_path,
)
from repro.dse.stats import DseStats
from repro.faults import Fault, FaultPlan
from repro.dse.options import DseOptions

pytestmark = pytest.mark.parallel

SIZE = 16


def fingerprint(result):
    return (
        result.report.total_cycles,
        result.report.resources.dsp,
        result.report.resources.lut,
        result.report.resources.ff,
        result.tile_vectors(),
        [d.fingerprint() for d in result.schedule],
    )


def _sequential_baselines(specs):
    return {
        spec.label: auto_dse(build_workload(spec.workload, spec.size), options=DseOptions(fault_plan=spec.fault_plan))
        for spec in specs
    }


def test_build_workload_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_workload("definitely-not-a-workload")


def test_sharded_sweep_matches_sequential_sweeps():
    specs = default_sweep_specs(size=SIZE)
    assert [spec.workload for spec in specs] == list(DEFAULT_SWEEP)
    sweep = run_sharded_sweep(specs, jobs=2)
    assert sweep.ok
    baselines = _sequential_baselines(specs)
    for shard in sweep.shards:
        baseline = baselines[shard.spec.label]
        assert fingerprint(shard.result) == fingerprint(baseline), shard.spec.label
        assert shard.result.evaluations == baseline.evaluations, shard.spec.label


def test_cli_all_jobs_2_prints_what_jobs_1_prints(capsys):
    def run(jobs):
        argv = ["dse", "--all", "--size", str(SIZE), "--pareto", "--jobs", jobs]
        assert main(argv) == 0
        return re.sub(r"in \d+\.\d+s", "in <t>s", capsys.readouterr().out)

    sequential = run("1")
    assert sequential.count("evaluations in <t>s") == len(DEFAULT_SWEEP)
    assert run("2") == sequential


def test_merged_stats_equal_the_sum_of_shard_stats():
    sweep = run_sharded_sweep(default_sweep_specs(size=SIZE), jobs=2)
    assert sweep.ok
    shard_stats = [shard.result.stats for shard in sweep.shards]
    for field_name in (
        "evaluations", "candidates", "estimations", "lowerings",
        "quarantined", "eval_cache_hits", "eval_cache_misses",
    ):
        assert getattr(sweep.stats, field_name) == sum(
            getattr(s, field_name) for s in shard_stats
        ), field_name
    assert sweep.stats.total_s == pytest.approx(
        sum(s.total_s for s in shard_stats)
    )
    # isl counters merge key-wise.
    for key, (hits, misses) in sweep.stats.isl_counters.items():
        assert hits == sum(s.isl_counters.get(key, (0, 0))[0] for s in shard_stats)
        assert misses == sum(s.isl_counters.get(key, (0, 0))[1] for s in shard_stats)


def test_checkpoint_dir_gets_one_journal_per_shard(tmp_path):
    directory = tmp_path / "journals"
    specs = default_sweep_specs(size=SIZE)
    sweep = run_sharded_sweep(specs, jobs=2, checkpoint_dir=str(directory))
    assert sweep.ok
    expected = {
        os.path.basename(shard_journal_path(str(directory), spec))
        for spec in specs
    }
    assert set(os.listdir(directory)) == expected
    assert expected == {f"{name}-{SIZE}.journal" for name in DEFAULT_SWEEP}


def test_crashed_shard_resumes_from_its_journal(tmp_path):
    """An injected worker crash loses nothing: the driver retries the
    shard with resume=True against its journal and converges to the
    fault-free result."""
    baseline = auto_dse(build_workload("gemm", SIZE))
    specs = [
        ShardSpec("gemm", size=SIZE, fault_plan=FaultPlan([Fault("crash", 2)])),
        ShardSpec("bicg", size=SIZE),
    ]
    sweep = run_sharded_sweep(specs, jobs=2, checkpoint_dir=str(tmp_path))
    assert sweep.ok
    crashed = sweep.shards[0]
    assert crashed.crashed and crashed.retried
    assert fingerprint(crashed.result) == fingerprint(baseline)
    # The retry replayed the candidates journaled before the crash.
    assert crashed.result.stats.replayed >= 1
    assert not sweep.shards[1].crashed


def test_crashed_shard_without_retry_is_reported(tmp_path):
    specs = [
        ShardSpec("gemm", size=SIZE, fault_plan=FaultPlan([Fault("crash", 1)])),
    ]
    sweep = run_sharded_sweep(
        specs, jobs=1, checkpoint_dir=str(tmp_path), retry_crashed=False
    )
    assert not sweep.ok
    assert sweep.failures[0].crashed
    assert "died" in sweep.failures[0].error


@pytest.mark.parametrize("seed", [3, 11])
def test_seeded_fault_injection_through_the_pool(tmp_path, seed):
    """Shards carrying seeded fault plans still merge to the sequential
    faulty results -- the pool adds no nondeterminism to the chaos path."""
    kinds = ("transient", "permanent")
    specs = [
        ShardSpec(
            name,
            size=SIZE,
            fault_plan=FaultPlan.random(seed=seed + i, candidates=10, kinds=kinds),
        )
        for i, name in enumerate(DEFAULT_SWEEP)
    ]
    sweep = run_sharded_sweep(specs, jobs=2, checkpoint_dir=str(tmp_path))
    assert sweep.ok
    for i, shard in enumerate(sweep.shards):
        plan = FaultPlan.random(seed=seed + i, candidates=10, kinds=kinds)
        expected = auto_dse(build_workload(shard.spec.workload, SIZE), options=DseOptions(fault_plan=plan))
        assert fingerprint(shard.result) == fingerprint(expected), shard.spec.label
        assert [
            (q.parallelism, q.bank_cap, q.diagnostic.code)
            for q in shard.result.quarantine
        ] == [
            (q.parallelism, q.bank_cap, q.diagnostic.code)
            for q in expected.quarantine
        ], shard.spec.label


def test_quarantine_and_diagnostics_merge_in_shard_order():
    specs = [
        ShardSpec(
            name,
            size=SIZE,
            fault_plan=FaultPlan([Fault("permanent", 1)]),
        )
        for name in ("gemm", "bicg")
    ]
    sweep = run_sharded_sweep(specs, jobs=2)
    assert sweep.ok
    # One quarantine per shard, merged in shard declaration order --
    # never in completion order.
    labels = [label for label, _ in sweep.quarantine]
    assert labels == [f"gemm({SIZE})", f"bicg({SIZE})"]
    for _, candidate in sweep.quarantine:
        assert candidate.diagnostic.code == "DSE001"
    assert sweep.stats.quarantined == 2


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
