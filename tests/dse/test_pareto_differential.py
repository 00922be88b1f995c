"""Differential suite: Pareto frontiers are mode-independent.

The determinism contract of :mod:`repro.dse.pareto`: the frontier is a
pure function of the scored candidate set, so every sweep mode that
scores the same candidates -- cached (design-identical grid members
answered by the nest-lowering and per-nest estimate memos) or uncached
(every grid member really lowered and estimated), fresh or resumed from a checkpoint
journal (one sweep or all of ``repro dse --all``), fault-injected or
clean -- reconstructs a bit-identical frontier.  This suite runs each mode pair and compares, in the style of
``tests/dse/test_reference_differential.py``.

It also pins the other half of the contract: turning the frontier
machinery *on* must not change the classic single-objective result
(the ladder trajectory is shared; enrichment only adds evaluations
after it).
"""

import pytest

from repro.cli import ALL_WORKLOADS, main
from repro.dse import auto_dse, engine
from repro.dse.options import DseOptions
from repro.faults import Fault, FaultPlan
from repro.workloads import polybench

WORKLOADS = ("gemm", "bicg", "mm2", "mm3", "gesummv")
SIZE = 16


def _frontier(result):
    assert result.frontier is not None, "frontier mode returned no frontier"
    return [point.to_record() for point in result.frontier]


def _run(name, **changes):
    options = DseOptions(**{"objective": "pareto", "cache": False, **changes})
    return auto_dse(getattr(polybench, name)(SIZE), options=options)


class TestCacheParity:
    """Memo-answered grid members == the exhaustive run, bit for bit."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cached_matches_uncached(self, name):
        cached = _run(name, cache=True)
        uncached = _run(name, cache=False)
        assert _frontier(cached) == _frontier(uncached)
        assert cached.report == uncached.report
        assert cached.tile_vectors() == uncached.tile_vectors()
        # Same candidates visited and estimated; the nest and report
        # memos spare the cached run most nest lowerings and nest
        # estimates.  (An uncached estimator counts no misses: its nest
        # estimates are the cached run's hits plus misses.)
        assert cached.evaluations == uncached.evaluations
        assert cached.stats.estimations == uncached.stats.estimations
        assert cached.stats.group_lowerings < uncached.stats.group_lowerings
        assert cached.stats.report_misses < (
            cached.stats.report_hits + cached.stats.report_misses
        )
        assert cached.stats.surrogate_skips > 0
        assert uncached.stats.surrogate_skips == 0


class TestSkipDefinition:
    """A memo-answered grid member is one that lowered no nest and
    missed no nest estimate; an estimated one did either."""

    @pytest.mark.parametrize("name", ["gemm", "mm3"])
    def test_skips_are_the_candidates_that_did_no_work(self, name, monkeypatch):
        real = engine._evaluate
        calls = []  # (pareto counters on entry, lowered or estimated)

        def recording(sweep, *args, **kwargs):
            stats, estimator = sweep.stats, sweep.evaluator.estimator
            counters = (stats.pareto_evaluated, stats.surrogate_skips)
            work = (stats.group_lowerings, estimator.nest_misses)
            try:
                return real(sweep, *args, **kwargs)
            finally:
                did_work = (stats.group_lowerings, estimator.nest_misses) != work
                calls.append((counters, did_work))

        monkeypatch.setattr(engine, "_evaluate", recording)
        result = _run(name, cache=True)
        stats = result.stats
        # A candidate is classified after _evaluate returns, before the
        # next call: the counters at the next entry (or at the end) say
        # how.
        ends = [c for c, _ in calls[1:]] + [
            (stats.pareto_evaluated, stats.surrogate_skips)
        ]
        classified = {"evaluated": 0, "skipped": 0}
        for (start, did_work), end in zip(calls, ends):
            delta = (end[0] - start[0], end[1] - start[1])
            if delta == (1, 0):
                assert did_work
                classified["evaluated"] += 1
            elif delta == (0, 1):
                assert not did_work
                classified["skipped"] += 1
            else:
                assert delta == (0, 0)
        assert classified == {
            "evaluated": stats.pareto_evaluated,
            "skipped": stats.surrogate_skips,
        }
        assert stats.pareto_evaluated > 0 and stats.surrogate_skips > 0


class TestWeightedSelection:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_weighted_selects_a_frontier_member(self, name):
        result = _run(name, objective="weighted:latency=1,dsp=0.25")
        records = _frontier(result)
        selected = (
            result.report.total_cycles,
            result.report.resources.dsp,
        )
        assert selected in [(r["cycles"], r["dsp"]) for r in records]


class TestBudgetedSweep:
    @pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
    def test_an_exhausted_budget_publishes_the_grid_prefix(self, cache):
        """A budget of zero stops the ladder and the enrichment before
        either scores anything past the degree-1 baseline: the frontier
        is that one design, reported as degraded, with one DSE004."""
        result = _run("gemm", cache=cache, time_budget_s=0)
        assert [p.parallelism for p in result.frontier] == [(("s", 1),)]
        assert result.degraded and result.stats.time_budget_hit
        assert [d.code for d in result.diagnostics].count("DSE004") == 1
        assert result.stats.pareto_candidates == 3
        assert result.stats.pareto_evaluated == 0
        assert result.stats.surrogate_skips == 0


class TestResumedParity:
    def test_resumed_sweep_reconstructs_the_frontier(self, tmp_path):
        journal = tmp_path / "pareto.jsonl"
        first = _run("gemm", checkpoint=str(journal))
        resumed = _run("gemm", checkpoint=str(journal), resume=True)
        assert _frontier(resumed) == _frontier(first)
        assert resumed.report == first.report
        # The resumed run replays candidates instead of re-estimating.
        assert resumed.stats.replayed > 0

    def test_resumed_weighted_selects_identically(self, tmp_path):
        journal = tmp_path / "weighted.jsonl"
        spec = "weighted:latency=1,dsp=0.5"
        first = _run("mm2", objective=spec, checkpoint=str(journal))
        resumed = _run(
            "mm2", objective=spec, checkpoint=str(journal), resume=True
        )
        assert _frontier(resumed) == _frontier(first)
        assert resumed.report == first.report
        assert resumed.tile_vectors() == first.tile_vectors()


class TestAllWorkloadsResumedParity:
    def test_resumed_all_reconstructs_every_frontier(
        self, tmp_path, monkeypatch, capsys
    ):
        real = engine.auto_dse
        results = []

        def recording(function, options=None):
            result = real(function, options=options)
            results.append(result)
            return result

        monkeypatch.setattr(engine, "auto_dse", recording)
        argv = ["dse", "--all", "--size", str(SIZE), "--pareto"]
        assert main(argv + ["--checkpoint", str(tmp_path)]) == 0
        assert main(argv + ["--resume", str(tmp_path)]) == 0
        capsys.readouterr()
        fresh, resumed = results[: len(ALL_WORKLOADS)], results[len(ALL_WORKLOADS):]
        assert len(resumed) == len(ALL_WORKLOADS)
        for name, a, b in zip(ALL_WORKLOADS, fresh, resumed):
            assert _frontier(b) == _frontier(a), name
            assert b.report == a.report, name
            assert b.stats.replayed > 0, name


class TestFaultInjectedParity:
    @pytest.mark.resilience
    def test_transient_faults_converge_to_the_clean_frontier(self):
        clean = _run("gemm")
        plan = FaultPlan([Fault("transient", 2, count=2)])
        faulted = _run("gemm", fault_plan=plan)
        assert plan.fired, "fault plan never fired; test is vacuous"
        assert _frontier(faulted) == _frontier(clean)


class TestSingleObjectiveUnchanged:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_pareto_mode_returns_the_single_mode_design(self, name):
        single = auto_dse(
            getattr(polybench, name)(SIZE), options=DseOptions(cache=False)
        )
        pareto = _run(name)
        assert pareto.report == single.report
        assert pareto.tile_vectors() == single.tile_vectors()
        assert [d.fingerprint() for d in pareto.schedule] == [
            d.fingerprint() for d in single.schedule
        ]

    def test_single_mode_has_no_frontier_and_no_enrichment(self):
        result = auto_dse(
            polybench.gemm(SIZE), options=DseOptions(cache=False)
        )
        assert result.objective == "single"
        assert result.frontier is None
        assert result.stats.pareto_candidates == 0
        assert result.stats.surrogate_skips == 0
