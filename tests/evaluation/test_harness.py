"""Unit tests for the experiment harness plumbing."""

import inspect
import os
import subprocess
import sys

import pytest

import repro
from repro.evaluation import ALL_EXPERIMENTS, fig2, pareto_front, table3
from repro.evaluation.frameworks import (
    FRAMEWORKS,
    fmt_tiles,
    format_table,
    run_framework,
)
from repro.workloads import polybench


class TestRunFramework:
    def test_unknown_framework_rejected(self):
        with pytest.raises(ValueError):
            run_framework("tvm", polybench.gemm, 16)

    def test_baseline_speedup_is_one(self):
        result = run_framework("baseline", polybench.gemm, 16)
        assert result.speedup == pytest.approx(1.0)

    def test_pom_result_fields(self):
        result = run_framework("pom", polybench.gemm, 32)
        assert result.framework == "pom"
        assert result.benchmark == "gemm"
        assert result.size == 32
        assert result.speedup > 1
        assert result.tiles
        assert result.dse_time_s > 0
        assert result.parallelism >= 1

    def test_scalehls_result_fields(self):
        result = run_framework("scalehls", polybench.gemm, 32)
        assert result.tiles
        assert result.achieved_ii is not None

    def test_all_frameworks_run_bicg(self):
        for framework in FRAMEWORKS:
            result = run_framework(framework, polybench.bicg, 16)
            assert result.report.total_cycles > 0, framework


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Long header"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        assert format_table(["x"], [], title="T").startswith("T")

    def test_fmt_tiles(self):
        assert fmt_tiles({}) == "-"
        assert fmt_tiles({"s": [1, 2]}) == "[1, 2]"


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig2", "table3", "fig11", "table4", "fig12",
            "table5", "table6", "fig13", "table7", "fig14", "fig15",
            "pareto_front", "dataflow",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_each_entry_is_its_modules_experiment(self):
        for name, experiment in ALL_EXPERIMENTS.items():
            module = sys.modules[experiment.run.__module__]
            assert module.EXPERIMENT is experiment, name
            assert experiment.render is module.render, name
            assert not hasattr(module, "main"), name

    def test_declared_arguments_match_run_signatures(self):
        # Callers pass the reduced configuration, `size` from `repro
        # experiment --size` when it names one, and `device` when
        # device_aware is set, without looking at run's signature.
        sized, device_aware = set(), set()
        for name, experiment in ALL_EXPERIMENTS.items():
            parameters = inspect.signature(experiment.run).parameters
            assert set(experiment.quick) <= set(parameters), name
            assert ("device" in parameters) == experiment.device_aware, name
            if "size" in experiment.quick:
                sized.add(name)
            if experiment.device_aware:
                device_aware.add(name)
        assert sized == {
            "fig2", "table3", "table4", "fig11", "table6", "pareto_front", "dataflow",
        }
        assert device_aware == {"dataflow"}


class TestEntryPoints:
    def test_module_entry_point_runs_without_runtime_warning(self):
        # Importing the package must not import the experiment modules:
        # runpy warns when `-m` runs a module already in sys.modules.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.evaluation.table4"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )
        assert done.returncode == 0, done.stderr
        assert "Table IV: manual vs DSE optimization (BICG)" in done.stdout


class TestSmallScaleExperiments:
    """Each experiment's run/render round-trips at tiny sizes."""

    def test_fig2_small(self):
        results = fig2.run(size=32)
        text = fig2.render(results)
        assert "pom" in text

    def test_table3_small(self):
        results = table3.run(size=32, benchmarks=("gemm",))
        text = table3.render(results)
        assert "gemm" in text

    def test_pareto_front_small(self):
        results = pareto_front.run(size=32, workloads=("gemm",))
        text = pareto_front.render(results)
        assert "Pareto frontiers" in text
        assert results["gemm"].frontier, "pareto mode must yield a frontier"
        assert "gemm" in text and "#1" in text
