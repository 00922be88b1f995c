"""Instrumentation coverage: spans and metrics from every pipeline layer.

The acceptance bar for the tracing subsystem is that one traced DSE run
produces spans from at least five pipeline layers (schedule application,
polyhedral transforms, isl, affine lowering/passes, HLS estimation, the
DSE engine itself) and that the DSE metrics mirror the authoritative
:class:`~repro.dse.stats.DseStats` counters exactly.
"""

from collections import Counter

import pytest

from repro import trace, workloads
from repro.dse import auto_dse
from repro.dse.engine import _STATS_METRICS
from repro.dse.options import DseOptions
from repro.session import SessionContext
from repro.trace import span_categories
from repro.workloads import polybench


@pytest.fixture(scope="module")
def traced_dse():
    # An off-pattern size: the DSE caches and the isl memo tables are
    # process-global, and a size shared with other test modules would
    # arrive warm here and skip the instrumented work this module
    # asserts on.
    function = polybench.gemm(20)
    with trace.tracing() as tracer:
        result = auto_dse(function)
    return tracer, result


def _categories(tracer):
    counts = {}
    for span in tracer.spans:
        counts[span.category] = counts.get(span.category, 0) + 1
    return counts


class TestSpanCoverage:
    def test_at_least_five_pipeline_layers(self, traced_dse):
        tracer, _ = traced_dse
        categories = set(_categories(tracer))
        expected = {"schedule", "depgraph", "polyir", "isl", "affine", "hls", "dse"}
        assert len(categories & expected) >= 6, categories

    def test_dse_engine_spans(self, traced_dse):
        tracer, _ = traced_dse
        names = {s.name for s in tracer.spans}
        assert "dse.auto_dse" in names
        assert "dse.stage1" in names
        assert "dse.candidate" in names
        assert "dse.finalize" in names

    def test_dependence_analysis_spans(self, traced_dse):
        tracer, _ = traced_dse
        carried = [s for s in tracer.spans if s.name == "depgraph.carried"]
        assert carried
        for span in carried:
            assert span.category == "depgraph"
            assert span.args["dims"] >= 1 and span.args["pairs"] >= 1
            assert span.args["relations"] >= 0
        # Stage 1's rechecks and stage 2's planning are no longer
        # anonymous self time of their parents.
        parents = {tracer.spans[s.parent].name for s in carried}
        assert "dse.stage1" in parents

    def test_sweep_root_carries_workload_fingerprint(self, traced_dse):
        tracer, result = traced_dse
        root = next(s for s in tracer.spans if s.name == "dse.auto_dse")
        assert root.args["function"] == result.function.name
        # The sweep root identifies *which* search space the trace
        # profiles -- the same structural digest checkpoints use.
        assert len(root.args["fingerprint"]) > 0

    def test_candidate_spans_carry_search_args(self, traced_dse):
        tracer, _ = traced_dse
        candidates = [s for s in tracer.spans if s.name == "dse.candidate"]
        assert candidates
        args = candidates[0].args
        assert "ordinal" in args
        assert "parallelism" in args

    def test_pass_spans_carry_op_counts(self):
        # The pass pipeline runs in the codegen path (canonicalization
        # before HLS C emission), not inside the DSE inner loop.
        with trace.tracing() as tracer:
            polybench.gemm(16).codegen()
        passes = [s for s in tracer.spans if s.name.startswith("pass.")]
        assert passes
        for span in passes:
            assert span.category == "affine"
            assert span.args["ops_after"] - span.args["ops_before"] == (
                span.args["ops_delta"]
            )

    def test_hls_spans_label_memoization(self, traced_dse):
        """Each estimate span counts its top-level nests and how many the
        per-nest memo answered; together they are the --stats row."""
        tracer, result = traced_dse
        estimates = [s for s in tracer.spans if s.name == "hls.estimate"]
        assert estimates
        for span in estimates:
            assert 0 <= span.args["nest_hits"] <= span.args["nests"]
        stats = result.stats
        assert sum(s.args["nest_hits"] for s in estimates) == stats.report_hits
        assert sum(s.args["nests"] for s in estimates) == (
            stats.report_hits + stats.report_misses
        )
        # A design scored again hits every nest.  (The sweep reads node
        # latencies off the estimate that scored a design, and takes the
        # score of the design just before without estimating, so a
        # revisit is driven here by hand, by an evaluator built under the
        # tracer it records into.)
        from repro.dse.evaluator import Evaluator

        with trace.tracing() as again:
            evaluator = Evaluator(polybench.gemm(20))
            configs, other = (
                evaluator.configs(dict.fromkeys(evaluator.nodes, degree)) for degree in (4, 1)
            )
            evaluator.realize(configs, 16)
            evaluator.realize(other, 16)
            evaluator.realize(configs, 16)
        spans = [s for s in again.spans if s.name == "hls.estimate"]
        assert [s.args["nest_hits"] == s.args["nests"] > 0 for s in spans] == [
            False, False, True
        ]

    def test_spans_nest_under_the_sweep_root(self, traced_dse):
        tracer, _ = traced_dse
        root = next(s for s in tracer.spans if s.name == "dse.auto_dse")
        assert root.parent == -1
        # Every other span transitively reaches the sweep root.
        index = tracer.spans.index(root)
        for span in tracer.spans:
            ancestor = span
            while ancestor.parent >= 0:
                ancestor = tracer.spans[ancestor.parent]
            assert tracer.spans.index(ancestor) == index


class TestMetricParity:
    def test_dse_metrics_mirror_stats(self, traced_dse):
        tracer, result = traced_dse
        metrics = tracer.metrics
        stats = result.stats
        assert metrics.value("dse.evaluations") == stats.evaluations
        assert metrics.value("dse.estimations") == stats.estimations
        assert metrics.value("dse.group_lowerings") == stats.group_lowerings
        assert (
            metrics.value("dse.cache.nest_lowering.hits")
            == stats.lowering_cache_hits
        )
        assert metrics.value("dse.cache.report.misses") == stats.report_misses
        # No metric is published for the deleted design layer.
        assert not any(name.startswith("dse.cache.design") for name in metrics.counters)

    def test_hot_loop_counters_recorded(self, traced_dse):
        tracer, _ = traced_dse
        assert tracer.metrics.value("hls.estimate_calls") > 0
        assert tracer.metrics.value("isl.fm_eliminations") > 0
        assert tracer.metrics.value("isl.ast_nodes") > 0
        assert tracer.metrics.value("polyir.directives_applied") > 0

    def test_dependence_counters_agree_with_spans(self, traced_dse):
        tracer, _ = traced_dse
        relations = sum(
            s.args["relations"] for s in tracer.spans if s.name == "depgraph.carried"
        )
        assert relations > 0
        assert tracer.metrics.value("depgraph.relations") == relations
        # One witness or one sample per distinct carried (relation,
        # level) -- the RAW, WAR and WAW rows of one relation share
        # theirs -- never one per dim.
        shown = tracer.metrics.value("depgraph.witnesses")
        assert 0 < shown + tracer.metrics.value("depgraph.samples") <= relations
        assert shown > 0

    def test_compile_only_trace_has_no_dse_spans(self):
        function = polybench.gemm(16)
        with trace.tracing() as tracer:
            function.lower()
            function.estimate()
        categories = set(_categories(tracer))
        assert "dse" not in categories
        assert {"isl", "affine", "hls"} <= categories


@pytest.mark.parametrize("name, size", [("gemm", 64), ("3mm", 64), ("conv-block", 16)])
@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
def test_spans_stats_and_metrics_count_the_same_work(name, size, cache):
    """One sweep's work read three ways agrees: the span tree, the
    :class:`~repro.dse.stats.DseStats` counters and the trace metrics
    mirrored from them (for a dataflow design: after realization, which
    lowers and estimates each stage's pick once more)."""
    with SessionContext().activate(), trace.tracing() as tracer:
        result = workloads.get(name, size).auto_DSE(options=DseOptions(cache=cache))
    stats = result.stats
    calls = Counter(span.name for span in tracer.spans)
    assert calls["dse.candidate"] == stats.candidates > 0
    assert calls["hls.estimate"] == stats.estimations
    if cache:
        assert calls["affine.lower_group"] == stats.lowering_cache_misses > 0
    else:
        assert calls["affine.lower_program"] == stats.lowerings > 0
    for field, metric in _STATS_METRICS:
        assert tracer.metrics.value(metric) == getattr(stats, field), metric


class TestChromeRoundTrip:
    def test_exported_trace_preserves_categories(self, traced_dse, tmp_path):
        from repro.trace import export_chrome_trace, load_chrome_trace

        tracer, _ = traced_dse
        path = tmp_path / "dse.json"
        export_chrome_trace(tracer, str(path))
        counts = span_categories(load_chrome_trace(str(path)))
        assert counts == _categories(tracer)
