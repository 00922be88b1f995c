"""Unit tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestList:
    def test_lists_all_suites(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("polybench", "stencils", "image", "dnn", "gemm", "seidel"):
            assert name in out


class TestCompile:
    def test_emit_c(self, capsys):
        assert main(["compile", "gemm", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "void gemm" in out

    def test_emit_mlir(self, capsys):
        assert main(["compile", "bicg", "--size", "8", "--emit", "mlir"]) == 0
        assert "func.func @bicg" in capsys.readouterr().out

    def test_emit_report(self, capsys):
        assert main(["compile", "gemm", "--size", "16", "--emit", "report"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_emit_all(self, capsys):
        assert main(["compile", "gemm", "--size", "8", "--emit", "all"]) == 0
        out = capsys.readouterr().out
        assert "void gemm" in out and "func.func" in out and "cycles" in out

    def test_dse_flag(self, capsys):
        assert main(["compile", "gemm", "--size", "32", "--dse"]) == 0
        captured = capsys.readouterr()
        assert "#pragma HLS pipeline" in captured.out
        assert "auto-DSE" in captured.err

    @pytest.mark.parametrize("name", ["gemm", "seidel", "image-pipeline"])
    def test_dse_emits_the_design_the_sweep_returned(self, name, capsys, monkeypatch):
        """`compile --dse --emit all` emits C, IR and report off the
        result: nothing is lowered after the sweep, and the text is what
        replaying the installed schedule prints."""
        from repro import pipeline
        from repro.affine import print_func
        from repro.dataflow import DataflowDesign
        from repro.dsl.function import Function

        swept, lowered = [], []
        lower_to_affine = pipeline.lower_to_affine
        monkeypatch.setattr(pipeline, "lower_to_affine", lambda *args, **kwargs: (
            lowered.append(args[0].name), lower_to_affine(*args, **kwargs))[1])
        for cls in (Function, DataflowDesign):
            def auto_dse(workload, options=None, sweep=cls.auto_DSE):
                result = sweep(workload, options=options)
                swept.append(workload)
                lowered.clear()
                return result
            monkeypatch.setattr(cls, "auto_DSE", auto_dse)

        assert main(["compile", name, "--size", "32", "--dse", "--emit", "all"]) == 0
        out = capsys.readouterr().out
        assert lowered == []

        (workload,) = swept
        if isinstance(workload, DataflowDesign):
            ir = "".join(f"// stage {stage.name}\n{print_func(stage.function.lower())}\n"
                         for stage in workload.topo_order())
        else:
            ir = print_func(workload.lower()) + "\n"
        report = workload.estimate()
        loops = "".join(f"   {loop}\n" for loop in report.loops)
        assert out == f"{workload.codegen()}\n{ir}{report.summary()}\n{loops}"

    def test_resource_fraction(self, capsys):
        assert main([
            "compile", "gemm", "--size", "32", "--dse",
            "--resource-fraction", "0.25", "--emit", "report",
        ]) == 0

    def test_unknown_workload(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", "nonesuch"])
        assert "unknown workload" in str(excinfo.value)

    def test_default_size_works(self, capsys):
        assert main(["compile", "jacobi-1d"]) == 0
        assert "void jacobi_1d" in capsys.readouterr().out


class TestDseOptionErrors:
    """A bad DSE number exits with its one-line message, not a run on the
    full device or a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dse", "gemm", "--resource-fraction", "nan"], "resource_fraction must be > 0 and <= 1, got nan"),
            (["dse", "gemm", "--resource-fraction", "inf"], "resource_fraction must be > 0 and <= 1, got inf"),
            (["dse", "gemm", "--resource-fraction", "2"], "resource_fraction must be > 0 and <= 1, got 2.0"),
            (["dse", "gemm", "--resource-fraction", "0"], "resource_fraction must be > 0 and <= 1, got 0.0"),
            (["dse", "gemm", "--resource-fraction", "-1"], "resource_fraction must be > 0 and <= 1, got -1.0"),
            (["dse", "gemm", "--time-budget", "nan"], "deadline budget must be >= 0 and finite, got nan"),
            (["dse", "gemm", "--time-budget", "-1"], "deadline budget must be >= 0 and finite, got -1.0"),
            (["dse", "gemm", "--candidate-timeout", "nan"], "candidate_timeout_s must be >= 0 and finite, got nan"),
            (["dse", "--all", "--resource-fraction", "2"], "resource_fraction must be > 0 and <= 1, got 2.0"),
            (["compile", "gemm", "--dse", "--resource-fraction", "nan"], "resource_fraction must be > 0 and <= 1, got nan"),
            (["compile", "gemm", "--dse", "--resource-fraction", "0"], "resource_fraction must be > 0 and <= 1, got 0.0"),
            (["dse", "gemm", "--resource-fraction", "0.001"], "fraction 0.001 truncates nonzero budget(s) to zero on xc7z020: dsp"),
        ],
        ids=["fraction-nan", "fraction-inf", "fraction-2", "fraction-0", "fraction-negative",
             "budget-nan", "budget-negative", "timeout-nan", "all-fraction-2",
             "compile-fraction-nan", "compile-fraction-0", "fraction-zeroes-a-budget"],
    )
    def test_exits_with_one_line(self, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--size", "8"])
        assert excinfo.value.code == message


class TestInputBoundaries:
    """A file or value the CLI cannot use ends in one line, not a traceback."""

    @staticmethod
    def _exit_message(argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    def test_missing_schedule_file(self, tmp_path):
        path = str(tmp_path / "missing.json")
        message = self._exit_message(["compile", "gemm", "--size", "8", "--load-schedule", path])
        assert message.startswith(f"cannot load schedule {path!r}: ")
        assert "No such file" in message

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_malformed_schedule_json(self, command, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        message = self._exit_message([command, "gemm", "--size", "8", "--load-schedule", str(path)])
        assert message.startswith(f"cannot load schedule {str(path)!r}: Expecting property name")

    def test_schedule_without_directives(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        message = self._exit_message(["compile", "gemm", "--size", "8", "--load-schedule", str(path)])
        assert message.endswith("missing 'directives' key")

    def test_save_schedule_into_missing_directory(self, tmp_path):
        path = str(tmp_path / "no" / "s.json")
        message = self._exit_message(["compile", "gemm", "--size", "8", "--save-schedule", path])
        assert message.startswith(f"cannot save schedule {path!r}: ")

    def test_fuzz_sizes_not_integers(self):
        message = self._exit_message(["fuzz", "--sizes", "a"])
        assert message == "--sizes must be comma-separated integers, got 'a'"

    def test_fuzz_out_that_cannot_be_created(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        message = self._exit_message(
            ["fuzz", "--trials", "1", "--sizes", "8", "--out", str(blocker / "out")]
        )
        assert "Not a directory" in message

    def test_checkpoint_in_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "no" / "sweep.journal")
        assert main(["dse", "gemm", "--size", "8", "--checkpoint", path]) == 2
        err = capsys.readouterr().err
        assert "error[DSE005]" in err and "cannot create journal" in err


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "fig2", "--size", "32"]) == 0
        assert "BICG motivating example" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "table99"])
        assert "unknown experiment" in str(excinfo.value)

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_non_positive_size_is_one_line_error(self, size):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "table3", "--size", size],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            f"error[WLD002]: experiment 'table3': size must be a positive integer, got {size}"
        ]

    def test_size_that_does_not_apply_is_reported_not_forced_in(
        self, capsys, monkeypatch
    ):
        # fig12 takes `sizes` (a sequence): --size used to be passed
        # positionally, raise TypeError inside, and silently rerun the
        # full 32..8192 sweep.
        from repro import evaluation
        from repro.evaluation.frameworks import Experiment

        calls = []

        def recording(**kwargs):
            calls.append(kwargs)

        monkeypatch.setattr(evaluation, "ALL_EXPERIMENTS", {
            "fig12": Experiment(recording, lambda _: "fig12"),
        })
        assert main(["experiment", "fig12", "--size", "32"]) == 0
        assert calls == [{}]
        assert "--size does not apply to fig12" in capsys.readouterr().err

    def test_type_error_inside_an_experiment_propagates(self, monkeypatch):
        from repro import evaluation
        from repro.evaluation.frameworks import Experiment

        calls = []

        def broken(size=8):
            calls.append(size)
            raise TypeError("bug inside the experiment")

        monkeypatch.setattr(evaluation, "ALL_EXPERIMENTS", {
            "fig2": Experiment(broken, str, quick={"size": 256}),
        })
        with pytest.raises(TypeError, match="bug inside the experiment"):
            main(["experiment", "fig2", "--size", "32"])
        assert calls == [32]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "gemm"])
        assert args.size is None
        assert args.emit == "c"
        assert not args.dse


class TestCosimCli:
    def test_emit_testbench(self, capsys):
        from repro.cli import main

        assert main(["compile", "gemm", "--size", "8", "--emit", "testbench"]) == 0
        out = capsys.readouterr().out
        assert "int main(void)" in out

    def test_cosim_flag(self, capsys):
        import shutil

        import pytest as _pytest

        if shutil.which("gcc") is None and shutil.which("cc") is None:
            _pytest.skip("no C compiler")
        from repro.cli import main

        assert main(["compile", "gemm", "--size", "8", "--cosim", "--emit", "report"]) == 0
        assert "MATCH" in capsys.readouterr().err


class TestDataflowDseStats:
    def test_stats_prints_one_profile_per_stage_and_their_sum(self, capsys):
        """`repro dse <dataflow design> --stats` used to drop the flag."""
        assert main(["dse", "conv-block", "--size", "16", "--stats"]) == 0
        out = capsys.readouterr().out
        for stage in ("conv", "relu", "pool"):
            assert f"stage {stage}:\n  dse profile (cache on):" in out
        assert "merged (totals are the sum of the stages above):" in out
        *stages, merged = (
            int(n) for n in re.findall(r"^    evaluations +(\d+)$", out, re.M)
        )
        assert len(stages) == 3 and merged == sum(stages)
        assert f"{merged} evaluations in" in out.splitlines()[0]
