"""Unit tests for the span/metrics core (repro.trace.core)."""

import pickle

import pytest

from repro import trace
from repro.trace import MetricsRegistry, TraceData, Tracer


class TestSpans:
    def test_nesting_by_parent_index(self):
        tracer = Tracer()
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                pass
            with tracer.span("inner2", "b"):
                pass
        names = [s.name for s in tracer.spans]
        assert names == ["outer", "inner", "inner2"]
        assert tracer.spans[0].parent == -1
        assert tracer.spans[1].parent == 0
        assert tracer.spans[2].parent == 0

    def test_declaration_order_is_open_order(self):
        # A span's index is assigned when it opens, not when it closes.
        tracer = Tracer()
        with tracer.span("first"):
            with tracer.span("second"):
                pass
        assert [s.name for s in tracer.spans] == ["first", "second"]

    def test_duration_and_args_filled(self):
        tracer = Tracer()
        with tracer.span("work", "cat", args={"k": 1}) as span:
            pass
        assert span.dur >= 0.0
        assert span.cpu >= 0.0
        assert span.args == {"k": 1}
        assert span.category == "cat"

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("outer"):
            assert tracer.current_span().name == "outer"
            with tracer.span("inner"):
                assert tracer.current_span().name == "inner"
            assert tracer.current_span().name == "outer"
        assert tracer.current_span() is None

    def test_stack_recovers_from_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current_span() is None
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent == -1

    def test_span_tuple_round_trip(self):
        tracer = Tracer()
        with tracer.span("s", "c", args={"x": 2}):
            pass
        span = tracer.spans[0]
        clone = type(span).from_tuple(span.as_tuple())
        assert clone.as_tuple() == span.as_tuple()


class TestGlobalHelpers:
    def test_disabled_path_is_shared_noop(self):
        assert trace.active() is None
        assert not trace.enabled()
        # The disabled span() must return one shared object, never allocate.
        handle1 = trace.span("x")
        handle2 = trace.span("y", "cat", args={"big": 1})
        assert handle1 is handle2
        with handle1 as span:
            assert span is None
        trace.count("nope")       # all silently dropped
        trace.observe("nope", 1.0)

    def test_tracing_scope_installs_and_restores(self):
        assert trace.active() is None
        with trace.tracing() as tracer:
            assert trace.active() is tracer
            assert trace.enabled()
            with trace.span("s", "c"):
                trace.count("hits", 2)
                trace.observe("lat", 0.5)
        assert trace.active() is None
        assert [s.name for s in tracer.spans] == ["s"]
        assert tracer.metrics.value("hits") == 2
        assert tracer.metrics.histograms["lat"].count == 1

    def test_nested_scopes_restore_previous(self):
        with trace.tracing() as outer:
            with trace.tracing() as inner:
                assert trace.active() is inner
            assert trace.active() is outer

    def test_install_returns_previous(self):
        tracer = Tracer()
        previous = trace.install(tracer)
        try:
            assert previous is None
            assert trace.active() is tracer
        finally:
            trace.install(previous)
        assert trace.active() is None


class TestCrossProcess:
    def _worker_data(self):
        worker = Tracer()
        with worker.span("root", "w"):
            with worker.span("leaf", "w"):
                worker.count("work", 3)
                worker.observe("t", 0.25)
        return worker.export_data()

    def test_export_data_pickles(self):
        data = self._worker_data()
        clone = pickle.loads(pickle.dumps(data))
        assert isinstance(clone, TraceData)
        assert clone.spans == data.spans
        assert clone.counters == data.counters
        assert clone.histograms == data.histograms

    def test_adopt_thread_assigns_track(self):
        driver = Tracer()
        driver.adopt_thread(self._worker_data(), 1, "shard gemm")
        assert driver.thread_names == {1: "shard gemm"}
        assert all(s.tid == 1 for s in driver.spans)
        # adopted roots stay roots: not children of any driver span
        assert driver.spans[0].parent == -1
        assert driver.spans[1].parent == 0
        assert driver.metrics.value("work") == 3
        # adopted spans are rebased into the driver's timeline
        assert driver.spans[0].ts >= 0.0

    def test_graft_order_is_deterministic(self):
        def merged():
            driver = Tracer()
            for tid, label in ((1, "a"), (2, "b")):
                driver.adopt_thread(self._worker_data(), tid, label)
            return [(s.name, s.tid) for s in driver.spans]

        assert merged() == merged()
        assert merged() == [("root", 1), ("leaf", 1), ("root", 2), ("leaf", 2)]

    def test_adopting_empty_data_only_names_the_track(self):
        driver = Tracer()
        driver.adopt_thread(TraceData([], {}, []), 1, "idle shard")
        assert driver.spans == []
        assert driver.metrics.counters == {}
        assert driver.thread_names == {1: "idle shard"}


class TestMetricsRegistry:
    def test_count_and_value(self):
        registry = MetricsRegistry()
        assert registry.value("c") == 0
        registry.count("c")
        registry.count("c", 4)
        assert registry.value("c") == 5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        h = registry.histograms["h"]
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_merge_sums_counters_and_merges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("c", 1)
        b.count("c", 2)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.merge(b)
        assert a.value("c") == 3
        assert a.histograms["h"].count == 2
        assert a.histograms["h"].max == 5.0

    def test_plain_round_trip(self):
        a = MetricsRegistry()
        a.count("c", 2)
        a.observe("h", 1.5)
        counters, histograms = a.as_plain()
        b = MetricsRegistry()
        b.merge_plain(counters, histograms)
        assert b.as_dict() == a.as_dict()
