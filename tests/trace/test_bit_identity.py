"""Tracing is observational only: results are bit-identical on or off.

Every sweep mode (sequential, uncached, fault-injected,
``repro dse --all``) is run twice -- once under an active tracer, once without --
and the search outcomes are compared field for field.  This is the
contract that lets the instrumentation live in the hot loops
permanently.
"""

from repro import trace
from repro.cli import ALL_WORKLOADS, main
from repro.dse import DseOptions, auto_dse, engine
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


class TestDseAllIdentity:
    def _all(self, monkeypatch, capsys, *flags):
        real = engine.auto_dse
        results = []

        def recording(function, options=None):
            result = real(function, options=options)
            results.append(result)
            return result

        monkeypatch.setattr(engine, "auto_dse", recording)
        assert main(["dse", "--all", "--size", "16", *flags]) == 0
        monkeypatch.setattr(engine, "auto_dse", real)
        capsys.readouterr()
        assert len(results) == len(ALL_WORKLOADS)
        return results

    def test_traced_results_identical(self, tmp_path, monkeypatch, capsys):
        untraced = self._all(monkeypatch, capsys)
        traced = self._all(monkeypatch, capsys, "--trace", str(tmp_path / "t.json"))
        for name, a, b in zip(ALL_WORKLOADS, untraced, traced):
            assert _outcome(a) == _outcome(b), name
            assert a.stats.evaluations == b.stats.evaluations, name

    def test_spans_are_deterministic(self, tmp_path, monkeypatch, capsys):
        def spans(path):
            self._all(monkeypatch, capsys, "--trace", str(path))
            return [
                (event["name"], event["cat"], event["tid"])
                for event in trace.load_chrome_trace(str(path))["traceEvents"]
                if event["ph"] == "X"
            ]

        first = spans(tmp_path / "a.json")
        assert first
        # Same workloads, same order: the same span sequence on the same
        # tracks, run after run.
        assert spans(tmp_path / "b.json") == first


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
