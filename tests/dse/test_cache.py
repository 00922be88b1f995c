"""The memoized DSE evaluation engine: cached == uncached, bit for bit."""

import pytest

from repro.affine import print_func
from repro import trace
from repro.affine.lowering import lower_program, lower_program_incremental
from repro.dse import auto_dse
from repro.affine.ir import AffineStoreOp, FuncOp
from repro.dse.evaluator import Evaluator
from repro.hls.estimator import HlsEstimator
from repro.polyir.program import PolyProgram
from repro import workloads
from repro.workloads import polybench
from repro.dse.options import DseOptions

CACHE_WORKLOADS = ["gemm", "bicg", "mm2", "mm3", "gesummv"]


def _schedule_fps(result):
    return [d.fingerprint() for d in result.schedule]


def _keys(program):
    return {stmt.name: stmt.fingerprint() for stmt in program.statements}


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


#: Per Table III workload at size 512: the top-level nest lowerings and
#: nest estimates the cached sweep avoids against the uncached one.  It
#: replaces a wall-time ratio, which fell whenever the uncached path got
#: cheaper; these counts fall only when a memo layer stops answering.
TABLE3_SAVINGS = {
    "gemm": (0, 0), "bicg": (0, 0), "mm2": (14, 7), "mm3": (15, 13), "gesummv": (13, 25),
}


def test_the_memo_layers_save_the_table3_suite_pinned_work(monkeypatch):
    nests = []
    estimate_nest = HlsEstimator._nest

    def counting(self, *args):
        nests.append(self)
        return estimate_nest(self, *args)

    monkeypatch.setattr(HlsEstimator, "_nest", counting)
    saved = {}
    for name in TABLE3_SAVINGS:
        del nests[:]
        uncached = auto_dse(getattr(polybench, name)(512), options=DseOptions(cache=False))
        estimated = len(nests)
        cached = auto_dse(getattr(polybench, name)(512))
        assert cached.payload() == uncached.payload(), name
        assert print_func(cached.func_op) == print_func(uncached.func_op), name
        assert cached.evaluations == uncached.evaluations, name
        saved[name] = (
            uncached.stats.group_lowerings - cached.stats.group_lowerings,
            estimated - cached.stats.report_misses,
        )
    assert saved == TABLE3_SAVINGS


class TestIncrementalLowering:
    """Per-nest lowering splices exactly what a full lowering produces."""

    @pytest.mark.parametrize("name", workloads.names(kind="function"))
    def test_equivalent_to_full_lowering(self, name):
        function = workloads.get(name)
        program = PolyProgram(function).apply_schedule()
        full = print_func(lower_program(program))
        incremental = print_func(lower_program_incremental(program, _keys(program), cache={}))
        assert incremental == full

    def test_unchanged_nests_are_reused_by_reference(self):
        function = polybench.mm2(32)
        cache = {}
        program = PolyProgram(function).apply_schedule()
        first = lower_program_incremental(program, _keys(program), cache=cache)
        again = PolyProgram(function).apply_schedule()
        second = lower_program_incremental(again, _keys(again), cache=cache)
        assert [op for op in first.body] == [op for op in second.body]

    def test_cache_counters_feed_stats(self):
        """The evaluator counts its own nest memo: a miss per nest it
        lowers, a hit per nest spliced from an earlier lowering."""
        evaluator = Evaluator(polybench.mm2(32))
        stats = evaluator.stats
        counts = []
        for parallelism in ({}, {evaluator.nodes[0]: 2}, {}):
            evaluator.realize(evaluator.configs(parallelism), 16)
            counts.append((stats.lowering_cache_hits, stats.lowering_cache_misses))
        assert counts == [(0, 2), (1, 3), (3, 3)]
        assert stats.group_lowerings == stats.lowering_cache_misses


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
            assert evaluator.node_latencies(func_op, evaluator.nest_cycles) == _shell_latencies(
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
        candidates answers each exactly as a fresh, non-memoizing one.
        A sweep estimates each design once, so the candidates are driven
        through twice: the second pass is the revisit every nest hits."""
        lowered = []
        estimate = HlsEstimator.estimate
        monkeypatch.setattr(
            HlsEstimator, "estimate", lambda self, f: lowered.append(f) or estimate(self, f)
        )
        auto_dse(workloads.get(name, size))
        monkeypatch.undo()
        memoized = HlsEstimator()
        for func_op in lowered + lowered:
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

    @pytest.mark.parametrize(
        "factory, nests", [(polybench.gemm, 1), (polybench.mm2, 2)], ids=["gemm", "2mm"]
    )
    def test_lowering_is_accounted_with_the_cache_on_or_off(self, factory, nests):
        """`--no-cache --stats` used to print `ast build 0.0 ms`.

        Each distinct schedule is lowered once with the cache on or off,
        and its AST build is timed by the ``isl.ast_build`` spans either
        way.  "Nests actually (re)lowered": without the nest memo that is
        every nest of every lowering, with it only the misses -- the same
        on a one-nest kernel (gemm), fewer on a multi-nest one (2mm)."""
        runs = {}
        for cache in (False, True):
            with trace.tracing() as tracer:
                runs[cache] = auto_dse(factory(64), options=DseOptions(cache=cache)).stats
            assert sum(s.dur for s in tracer.spans if s.name == "isl.ast_build") > 0
        uncached, cached = runs[False], runs[True]
        assert cached.lowerings == uncached.lowerings < uncached.evaluations
        assert uncached.group_lowerings == nests * uncached.lowerings
        assert uncached.lowering_cache_misses == 0
        assert cached.group_lowerings == cached.lowering_cache_misses
        if nests == 1:
            assert cached.group_lowerings == uncached.group_lowerings
        else:
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
