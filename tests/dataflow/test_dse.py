"""Joint dataflow DSE: balancing, composed frontiers, checkpoint/resume."""

import json
import os

import pytest

from repro import workloads
from repro.dataflow import auto_dse_dataflow, generate_dataflow_hls_c
from repro.dse.options import DseOptions

pytestmark = pytest.mark.dataflow

#: Tight enough that the naive even split visibly starves the bottleneck.
TIGHT = DseOptions(resource_fraction=0.25)


@pytest.fixture(scope="module")
def tight_result():
    return workloads.get("image-pipeline", 16).auto_DSE(options=TIGHT)


class TestBalancing:
    def test_balanced_beats_naive_under_tight_budget(self, tight_result):
        assert tight_result.balanced_speedup > 1.0
        assert (
            tight_result.report.total_cycles
            < tight_result.naive_report.total_cycles
        )

    def test_selection_covers_every_stage(self, tight_result):
        assert set(tight_result.selection) == {"smooth", "grad", "mag"}
        assert set(tight_result.naive_selection) == set(tight_result.selection)

    def test_fits_the_scaled_budget(self, tight_result):
        budget = TIGHT.resolved_device().scaled(0.25)
        used = tight_result.report.resources
        assert used.dsp <= budget.dsp
        assert used.lut <= budget.lut
        assert used.bram_bits <= budget.bram_bits

    def test_realized_reports_match_selected_points(self, tight_result):
        # Realization replays each selected (parallelism, bank_cap)
        # exactly, so the real estimate reproduces the frontier scalars.
        for name, point in tight_result.selection.items():
            assert (
                tight_result.report.stage_reports[name].total_cycles
                == point.cycles
            ), name

    def test_evaluations_accumulate_across_stages(self, tight_result):
        assert tight_result.evaluations == sum(
            r.evaluations for r in tight_result.stage_results.values()
        )
        assert tight_result.evaluations > 0
        assert not tight_result.quarantine


class TestComposedFrontier:
    def test_frontier_spans_multiple_stages(self, tight_result):
        assert len(tight_result.frontier) >= 2
        for point in tight_result.frontier:
            prefixes = {key.split(".")[0] for key, _ in point.parallelism}
            assert len(prefixes) >= 2, point.key

    def test_frontier_keys_name_stage_points_and_depths(self, tight_result):
        assert any("@d" in point.key for point in tight_result.frontier)
        assert all("+" in point.key for point in tight_result.frontier)

    def test_pareto_objective_flows_through(self):
        # Exercise the functional entry point alongside the method.
        result = auto_dse_dataflow(
            workloads.get("conv-block", 8),
            options=DseOptions(objective="pareto"),
        )
        assert result.objective.startswith("pareto")
        assert result.frontier

    def test_payload_is_json_safe(self, tight_result):
        payload = tight_result.payload()
        round_trip = json.loads(json.dumps(payload))
        assert round_trip["design"] == "image_pipeline"
        assert round_trip["balanced_speedup"] > 1.0
        assert round_trip["stages"].keys() == {"smooth", "grad", "mag"}
        assert len(round_trip["frontier"]) == len(tight_result.frontier)


class TestRealization:
    def test_schedules_left_installed_for_codegen(self):
        design = workloads.get("image-pipeline", 16)
        baseline = generate_dataflow_hls_c(design)
        result = design.auto_DSE(options=TIGHT)
        optimized = generate_dataflow_hls_c(design)
        # The balanced design parallelizes at least one stage, which
        # must be visible in the emitted HLS C (partition/unroll).
        assert optimized != baseline
        assert any(
            degree > 1
            for point in result.selection.values()
            for _, degree in point.parallelism
        )

    @pytest.mark.parametrize(
        "name,size,fraction",
        [("conv-block", 32, 0.25), ("image-pipeline", 32, 0.25), ("image-pipeline", 64, 0.1)],
    )
    def test_each_installed_stage_is_the_point_the_balancer_selected(
        self, name, size, fraction
    ):
        result = workloads.get(name, size).auto_DSE(
            options=DseOptions(resource_fraction=fraction)
        )
        for stage, point in result.selection.items():
            report = result.report.stage_reports[stage]
            used = report.resources
            assert (report.total_cycles, used.dsp, used.lut, used.ff, used.bram_bits) == (
                point.cycles, point.dsp, point.lut, point.ff, point.bram_bits
            ), stage

    def test_each_stage_is_scored_and_realized_by_one_evaluator(self, monkeypatch):
        from repro.dse.evaluator import Evaluator

        built, realized = [], []
        init, realize = Evaluator.__init__, Evaluator.realize

        def recording_init(self, function, *args, **kwargs):
            init(self, function, *args, **kwargs)
            built.append(function.name)

        def recording_realize(self, configs, bank_cap):
            realized.append(self.function.name)
            return realize(self, configs, bank_cap)

        monkeypatch.setattr(Evaluator, "__init__", recording_init)
        monkeypatch.setattr(Evaluator, "realize", recording_realize)
        result = workloads.get("conv-block", 32).auto_DSE(options=TIGHT)
        assert built == ["conv", "relu", "pool"]
        # Each stage realizes one point more than its sweep scored, and
        # that realization is no evaluation.
        assert [
            realized.count(name) - stage.stats.candidates
            for name, stage in result.stage_results.items()
        ] == [1, 1, 1]
        assert all(
            stage.stats.evaluations == stage.stats.candidates
            for stage in result.stage_results.values()
        )


class _Clock:
    """A ``time`` stand-in whose clock moves only when told to."""

    def __init__(self):
        self.now = 100.0

    def perf_counter(self):
        return self.now


class TestDesignWideBudget:
    @pytest.mark.parametrize(
        "budget, expected", [(5.0, [5.0, 3.5, 2.0]), (2.0, [2.0, 0.5, 0.0])]
    )
    def test_each_stage_gets_what_is_left(self, monkeypatch, budget, expected):
        from repro.dataflow import dse as dataflow_dse

        clock = _Clock()
        real_sweep = dataflow_dse.sweep
        given = []

        def stage_sweep(function, options):
            given.append(options.time_budget_s)
            clock.now += 1.5  # every stage sweep takes 1.5 s
            return real_sweep(function, options)

        monkeypatch.setattr(dataflow_dse, "time", clock)
        monkeypatch.setattr(dataflow_dse, "sweep", stage_sweep)
        workloads.get("image-pipeline", 8).auto_DSE(
            options=DseOptions(time_budget_s=budget)
        )
        # Never increasing, and never more than what is left of the budget.
        assert given == expected

    def test_no_budget_stays_unbounded(self, monkeypatch):
        from repro.dataflow import dse as dataflow_dse

        real_sweep = dataflow_dse.sweep
        given = []

        def stage_sweep(function, options):
            given.append(options.time_budget_s)
            return real_sweep(function, options)

        monkeypatch.setattr(dataflow_dse, "sweep", stage_sweep)
        workloads.get("conv-block", 8).auto_DSE()
        assert given == [None, None, None]


class TestCheckpointResume:
    def test_journals_fan_out_per_stage(self, tmp_path):
        journal = str(tmp_path / "design.journal")
        design = workloads.get("conv-block", 8)
        design.auto_DSE(options=DseOptions(
            resource_fraction=0.25, checkpoint=journal,
        ))
        for stage in ("conv", "relu", "pool"):
            assert os.path.exists(f"{journal}.{stage}"), stage

    def test_resume_is_bit_identical(self, tmp_path):
        journal = str(tmp_path / "design.journal")
        options = DseOptions(resource_fraction=0.25, checkpoint=journal)
        cold = workloads.get("conv-block", 8).auto_DSE(options=options)
        resumed = workloads.get("conv-block", 8).auto_DSE(
            options=options.replace(resume=True)
        )
        cold_payload = cold.payload()
        resumed_payload = resumed.payload()
        # Resume replays the journal instead of re-estimating; the
        # outcome must be indistinguishable.
        assert resumed_payload == cold_payload
        assert any(
            r.stats is not None and r.stats.replayed
            for r in resumed.stage_results.values()
        )

    def test_resume_without_journals_still_runs(self, tmp_path):
        journal = str(tmp_path / "never-written.journal")
        result = workloads.get("conv-block", 8).auto_DSE(
            options=DseOptions(
                resource_fraction=0.25, checkpoint=journal, resume=True,
            )
        )
        assert result.report.total_cycles > 0
