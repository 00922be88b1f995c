"""CLI contract for the unified run flags and the tracing surface.

Asserts the flag-unification invariants promised in ``docs/api.md``:
``--jobs/--checkpoint/--stats/--trace`` spell and document identically
across ``repro dse``, ``repro verify``, ``repro trace``, ``repro fuzz``
and ``report_all``; the pre-unification spellings and the removed
``--jobs`` of ``repro dse`` / ``repro fuzz`` are usage errors.
"""

import argparse
import re

import pytest

from repro.cli import (
    CHECKPOINT_HELP,
    JOBS_HELP,
    STATS_HELP,
    TRACE_HELP,
    build_parser,
    main,
)
from repro.evaluation import report_all
from repro.trace import load_chrome_trace, span_categories


def _subparser(name):
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[name]


class TestFlagUnification:
    def test_canonical_flags_document_identically(self, capsys):
        with pytest.raises(SystemExit):
            report_all.main(["--help"])
        assert JOBS_HELP in " ".join(capsys.readouterr().out.split())
        for command in ("dse", "verify"):
            help_text = " ".join(_subparser(command).format_help().split())
            assert STATS_HELP in help_text, command
            assert TRACE_HELP in help_text, command
        assert CHECKPOINT_HELP.split(";")[0] in " ".join(
            _subparser("dse").format_help().split()
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["dse", "gemm", "--parallel", "2"],
            ["dse", "gemm", "--journal", "j.jsonl"],
            ["dse", "gemm", "--profile"],
            ["verify", "gemm", "--trace-out", "t.json"],
            ["trace", "gemm", "--jobs", "2"],
            ["dse", "gemm", "--jobs", "2"],
            ["dse", "--all", "--jobs", "2"],
            ["fuzz", "--jobs", "2"],
            ["dse", "gemm", "--no-surrogate"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDseTraceFlag:
    def test_dse_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "dse.json"
        rc = main(["dse", "gemm", "--size", "16", "--trace", str(out)])
        assert rc == 0
        assert f"trace written to {out}" in capsys.readouterr().err
        payload = load_chrome_trace(str(out))
        categories = set(span_categories(payload))
        assert len(categories & {
            "schedule", "polyir", "isl", "affine", "hls", "dse",
        }) >= 5, categories
        assert payload["otherData"]["metrics"]["counters"]["dse.evaluations"] > 0

    def test_unwritable_trace_degrades_to_trc001(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "t.json"
        rc = main(["dse", "gemm", "--size", "16", "--trace", str(out)])
        assert rc == 0                      # the run itself still succeeds
        assert "TRC001" in capsys.readouterr().err


class TestTraceSubcommand:
    def test_prints_profile_and_metrics(self, capsys):
        rc = main(["trace", "gemm", "--size", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace profile" in out
        assert "trace metrics" in out
        assert "affine.lower_program" in out

    @pytest.mark.parametrize(
        "workload, lowerings", [("gemm", 1), ("image-pipeline", 3)]
    )
    def test_lowers_each_function_once(self, capsys, workload, lowerings):
        # Estimation lowers; the trace must not lower a second time first.
        assert main(["trace", workload, "--size", "32"]) == 0
        row = re.search(
            r"^affine\.lower_program \[affine\] +(\d+) ",
            capsys.readouterr().out, re.M,
        )
        assert int(row.group(1)) == lowerings

    def test_dse_mode_with_export(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        rc = main([
            "trace", "gemm", "--size", "16", "--dse", "--trace", str(out_path),
        ])
        assert rc == 0
        assert "dse.auto_dse" in capsys.readouterr().out
        assert set(span_categories(load_chrome_trace(str(out_path))))


class TestVerifyTraceFlags:
    def test_stats_prints_profile(self, capsys):
        rc = main(["verify", "gemm", "--size", "16", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace profile" in out

    def test_trace_exports(self, tmp_path, capsys):
        out_path = tmp_path / "v.json"
        rc = main(["verify", "gemm", "--size", "16", "--trace", str(out_path)])
        assert rc == 0
        assert load_chrome_trace(str(out_path))["traceEvents"]
