"""The memoized DSE evaluation engine: cached == uncached, bit for bit."""

import pytest

from repro.affine import print_func
from repro.affine.lowering import lower_program, lower_program_incremental
from repro.dse import auto_dse
from repro.affine.ir import AffineStoreOp, FuncOp
from repro.dse.evaluator import Evaluator
from repro.dse.stats import DseStats
from repro.hls.estimator import HlsEstimator
from repro.hls.report import speedup
from repro.polyir.program import PolyProgram
from repro import workloads
from repro.workloads import polybench
from repro.dse.options import DseOptions

CACHE_WORKLOADS = ["gemm", "bicg", "mm2", "mm3", "gesummv"]


def _schedule_fps(result):
    return [d.fingerprint() for d in result.schedule]


class TestCachedEqualsUncached:
    """auto_dse(f) and auto_dse(f, options=DseOptions(cache=False)) are interchangeable."""

    @pytest.mark.parametrize("name", CACHE_WORKLOADS)
    def test_identical_results(self, name):
        factory = getattr(polybench, name)
        uncached = auto_dse(factory(64), options=DseOptions(cache=False))
        cached = auto_dse(factory(64), options=DseOptions(cache=True))
        assert cached.report == uncached.report
        assert _schedule_fps(cached) == _schedule_fps(uncached)
        assert cached.tile_vectors() == uncached.tile_vectors()
        assert cached.evaluations == uncached.evaluations
        # The installed schedules lower to byte-identical MLIR.
        assert print_func(cached.function.lower()) == print_func(
            uncached.function.lower()
        )


class TestIncrementalLowering:
    """Per-nest lowering splices exactly what a full lowering produces."""

    @pytest.mark.parametrize("name", workloads.names(kind="function"))
    def test_equivalent_to_full_lowering(self, name):
        function = workloads.get(name)
        program = PolyProgram(function).apply_schedule()
        full = print_func(lower_program(program))
        incremental = print_func(lower_program_incremental(program, cache={}))
        assert incremental == full

    def test_unchanged_nests_are_reused_by_reference(self):
        function = polybench.mm2(32)
        cache = {}
        program = PolyProgram(function).apply_schedule()
        first = lower_program_incremental(program, cache=cache)
        second = lower_program_incremental(
            PolyProgram(function).apply_schedule(), cache=cache
        )
        assert [op for op in first.body] == [op for op in second.body]

    def test_cache_counters_feed_stats(self):
        function = polybench.gemm(32)
        cache = {}
        stats = DseStats()
        program = PolyProgram(function).apply_schedule()
        lower_program_incremental(program, cache=cache, stats=stats)
        assert stats.lowering_cache_misses >= 1
        lower_program_incremental(
            PolyProgram(function).apply_schedule(), cache=cache, stats=stats
        )
        assert stats.lowering_cache_hits >= 1


class TestSpeedupVs:
    def test_speedup_vs_delegates_to_report_speedup(self):
        function = polybench.gemm(64)
        baseline = function.estimate()
        result = auto_dse(function)
        assert result.speedup_vs(baseline) == speedup(baseline, result.report)
        assert result.speedup_vs(baseline) > 1.0


def _shell_latencies(func_op, device, clock_ns):
    """Node latencies the slow way: each top-level nest alone in a shell
    function, estimated by a fresh, non-memoizing estimator."""
    latencies = {}
    for op in func_op.body:
        shell = FuncOp(func_op.name, func_op.arrays)
        shell.attributes.update(func_op.attributes)
        shell.body.append(op)
        estimator = HlsEstimator(device=device, clock_ns=clock_ns, memoize_reports=False)
        cycles = estimator.estimate(shell).total_cycles
        for name in {s.statement_name() for s in op.walk() if isinstance(s, AffineStoreOp)}:
            latencies[name] = latencies.get(name, 0) + cycles
    return latencies


class TestNodeLatencies:
    @pytest.mark.parametrize("name, size", [("2mm", 32), ("3mm", 32), ("resnet18", 4)])
    def test_equal_single_nest_estimates(self, name, size):
        """The per-nest cycles one estimate composes are what each nest
        costs alone, at every degree of a small ladder."""
        evaluator = Evaluator(workloads.get(name, size))
        for degree in (1, 2, 4):
            configs = evaluator.configs(dict.fromkeys(evaluator.nodes, degree))
            _, func_op = evaluator.realize(configs, 16)
            estimator = evaluator.estimator
            assert evaluator.node_latencies(func_op) == _shell_latencies(
                func_op, estimator.device, estimator.clock_ns
            )


class TestNestMemo:
    @pytest.mark.parametrize("name, size", [
        *((name, 16) for name in workloads.names(kind="function")
          if name not in ("vgg16", "resnet18")),
        ("resnet18", 4),
    ])
    def test_memoized_estimates_equal_fresh_ones(self, name, size, monkeypatch):
        """One memoizing estimator driven across a sweep's lowered
        candidates answers each exactly as a fresh, non-memoizing one."""
        lowered = []
        estimate = HlsEstimator.estimate
        monkeypatch.setattr(
            HlsEstimator, "estimate", lambda self, f: lowered.append(f) or estimate(self, f)
        )
        auto_dse(workloads.get(name, size))
        monkeypatch.undo()
        memoized = HlsEstimator()
        for func_op in lowered:
            fresh = HlsEstimator(memoize_reports=False).estimate(func_op)
            assert memoized.estimate(func_op) == fresh
        assert memoized.nest_hits > 0


class TestDseStats:
    def test_result_carries_stats(self):
        result = auto_dse(polybench.gemm(64))
        stats = result.stats
        assert stats is not None
        assert stats.cache_enabled
        assert stats.evaluations == result.evaluations
        assert stats.total_s > 0
        assert stats.lowerings >= 1
        assert stats.estimations >= stats.lowerings
        assert set(stats.isl_counters) == {"projection", "emptiness", "bounds"}
        assert "dse profile" in stats.summary()

    def test_uncached_run_reports_cache_off(self):
        result = auto_dse(polybench.gemm(32), options=DseOptions(cache=False))
        stats = result.stats
        assert not stats.cache_enabled
        # No layer may claim a hit when caching is disabled.
        assert stats.lowering_cache_hits == 0
        assert stats.report_hits == 0
        assert stats.config_cache_hits == 0
        assert all(hits == 0 for hits, _ in stats.isl_counters.values())

    def test_lowering_is_accounted_with_the_cache_on_or_off(self):
        """`--no-cache --stats` used to print `ast build 0.0 ms`."""
        uncached = auto_dse(polybench.gemm(64), options=DseOptions(cache=False)).stats
        cached = auto_dse(polybench.gemm(64)).stats
        for stats in (uncached, cached):
            assert 0 < stats.astbuild_s <= stats.lowering_s
        # "Nests actually (re)lowered": without reuse that is every nest
        # of every lowering (gemm has one), with it only the misses.
        assert uncached.group_lowerings == uncached.lowerings
        assert uncached.lowering_cache_misses == 0
        assert cached.group_lowerings == cached.lowering_cache_misses
        assert cached.group_lowerings < uncached.group_lowerings


@pytest.mark.perfsmoke
def test_perfsmoke_cached_dse():
    """One cached DSE run: caching engages, the search does not shrink."""
    uncached = auto_dse(polybench.mm2(64), options=DseOptions(cache=False))
    cached = auto_dse(polybench.mm2(64), options=DseOptions(cache=True))
    stats = cached.stats
    layer_hits = (
        stats.lowering_cache_hits
        + stats.report_hits
        + stats.config_cache_hits
    )
    assert layer_hits > 0
    assert cached.evaluations <= uncached.evaluations
    assert cached.report == uncached.report
