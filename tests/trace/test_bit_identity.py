"""Tracing is observational only: results are bit-identical on or off.

Every sweep mode (sequential, uncached, fault-injected, sharded) is
run twice -- once under an active tracer, once without --
and the search outcomes are compared field for field.  This is the
contract that lets the instrumentation live in the hot loops
permanently.
"""

import pytest

from repro import trace
from repro.dse import DseOptions, auto_dse, default_sweep_specs, run_sharded_sweep
from repro.faults import Fault, FaultPlan
from repro.workloads import polybench


def _outcome(result):
    return (
        result.report,
        result.tile_vectors(),
        result.evaluations,
        result.parallelism,
        result.degraded,
        len(result.quarantine),
    )


def _run_pair(make_options):
    untraced = auto_dse(polybench.gemm(16), options=make_options())
    with trace.tracing() as tracer:
        traced = auto_dse(polybench.gemm(16), options=make_options())
    assert tracer.spans, "tracer recorded nothing"
    return untraced, traced


class TestSingleSweepIdentity:
    def test_sequential(self):
        untraced, traced = _run_pair(DseOptions)
        assert _outcome(untraced) == _outcome(traced)

    def test_uncached(self):
        untraced, traced = _run_pair(lambda: DseOptions(cache=False))
        assert _outcome(untraced) == _outcome(traced)

    def test_seeded_fault_plan(self):
        def options():
            return DseOptions(
                fault_plan=FaultPlan([Fault("transient", 2, count=2)])
            )

        untraced, traced = _run_pair(options)
        assert _outcome(untraced) == _outcome(traced)
        assert untraced.stats.estimator_retries == traced.stats.estimator_retries

    def test_random_fault_plan(self):
        def options():
            return DseOptions(
                fault_plan=FaultPlan.random(
                    seed=11, candidates=12, kinds=("transient", "permanent")
                ),
                candidate_timeout_s=30.0,
            )

        untraced, traced = _run_pair(options)
        assert _outcome(untraced) == _outcome(traced)
        assert untraced.stats.quarantined == traced.stats.quarantined


class TestDependenceAnalysisIdentity:
    def test_analysis_is_identical_traced_and_untraced(self):
        from repro.depgraph import analyze_compute
        from repro.workloads import stencils

        def carried():
            function = stencils.seidel(8)
            return [analyze_compute(c).carried for c in function.computes]

        untraced = carried()
        with trace.tracing() as tracer:
            traced = carried()
        assert untraced == traced
        assert any(s.name == "depgraph.carried" for s in tracer.spans)
        assert tracer.metrics.value("depgraph.samples") > 0


@pytest.mark.parallel
class TestShardedSweepIdentity:
    def _sweep(self):
        return run_sharded_sweep(default_sweep_specs(size=16), jobs=2)

    def test_sharded_results_identical(self):
        untraced = self._sweep()
        with trace.tracing() as tracer:
            traced = self._sweep()
        assert untraced.ok and traced.ok
        for a, b in zip(untraced.shards, traced.shards):
            assert a.spec.label == b.spec.label
            assert _outcome(a.result) == _outcome(b.result)
        assert untraced.stats.evaluations == traced.stats.evaluations

    def test_worker_tracks_merge_deterministically(self):
        with trace.tracing() as first:
            self._sweep()
        with trace.tracing() as second:
            self._sweep()
        labels = [first.thread_names[tid] for tid in sorted(first.thread_names)]
        assert labels == [
            f"shard {spec.label}" for spec in default_sweep_specs(size=16)
        ]
        assert first.thread_names == second.thread_names
        # Same sweep, same declaration order: the merged span sequence
        # has identical names/categories/tracks across runs.
        key = lambda t: [(s.name, s.category, s.tid) for s in t.spans]
        assert key(first) == key(second)

    def test_merged_stats_are_sum_of_shards(self):
        with trace.tracing():
            sweep = self._sweep()
        assert sweep.stats.evaluations == sum(
            shard.result.stats.evaluations for shard in sweep.shards
        )
        assert sweep.stats.estimations == sum(
            shard.result.stats.estimations for shard in sweep.shards
        )
