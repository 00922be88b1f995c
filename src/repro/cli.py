"""Command-line interface: compile workloads and regenerate experiments.

Usage examples::

    python -m repro list
    python -m repro compile gemm --size 256 --dse --emit c
    python -m repro compile bicg --size 1024 --dse --emit report
    python -m repro compile seidel --emit mlir
    python -m repro verify seidel --load-schedule sched.json
    python -m repro dse gemm --size 256 --stats --trace dse.json
    python -m repro trace gemm --size 256
    python -m repro experiment table3 --size 4096
    python -m repro experiment all

Flag conventions (shared verbatim across subcommands and
``repro.evaluation.report_all``; see ``docs/api.md``): ``--jobs N``
for worker processes (``report_all`` only), ``--checkpoint PATH`` for
crash-safe journaling,
``--stats`` for work/cache profiles, ``--trace PATH`` for a Chrome
``trace_event`` JSON of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Dict, Optional


# -- unified run flags --------------------------------------------------------

#: One help string per shared flag, so every subcommand documents it
#: identically (asserted by tests/trace/test_cli_trace.py).
JOBS_HELP = (
    "worker processes, one experiment each "
    "(results merge deterministically)"
)
CHECKPOINT_HELP = (
    "journal every evaluated candidate to PATH (crash-safe sweep); "
    "with --all, a directory holding one journal per workload"
)
STATS_HELP = "print the run's work/cache counters, then its span profile"
TRACE_HELP = "write a Chrome trace_event JSON of this run to PATH"


def _add_run_flags(
    parser,
    jobs: bool = False,
    checkpoint: bool = False,
    stats: bool = False,
    trace: bool = False,
) -> None:
    """Register the shared run flags."""
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=None, metavar="N", help=JOBS_HELP
        )
    if checkpoint:
        parser.add_argument(
            "--checkpoint", metavar="PATH", default=None, help=CHECKPOINT_HELP
        )
    if stats:
        parser.add_argument("--stats", action="store_true", help=STATS_HELP)
    if trace:
        parser.add_argument(
            "--trace", metavar="PATH", default=None, help=TRACE_HELP
        )


@contextlib.contextmanager
def _run_traced(args):
    """The run's tracer, active over the block when ``--trace`` or
    ``--stats`` asks for one (None otherwise); written to ``--trace``
    once the block completes."""
    from repro import trace as trace_mod

    if not (args.trace or args.stats):
        yield None
        return
    with trace_mod.tracing() as tracer:
        yield tracer
    if args.trace:
        _export_trace(tracer, args.trace)


def _print_profile(tracer) -> None:
    """``--stats``' closing block: the run's span profile."""
    from repro.trace import render_text_profile

    print()
    print(render_text_profile(tracer))


def _export_trace(tracer, path: str) -> None:
    """Write a Chrome trace, degrading to a TRC001 warning on failure."""
    from repro.diagnostics import Diagnostic, Severity
    from repro.trace import export_chrome_trace

    try:
        export_chrome_trace(tracer, path)
    except OSError as exc:
        diagnostic = Diagnostic(
            Severity.WARNING,
            "TRC001",
            f"trace output could not be written to {path!r}: {exc}",
        )
        print(diagnostic.render(), file=sys.stderr)
    else:
        print(f"trace written to {path}", file=sys.stderr)


def _build_workload(name: str, size: Optional[int]):
    """Registry lookup; WLD001/WLD002 become clean CLI exits."""
    from repro import workloads
    from repro.diagnostics import DiagnosticError

    try:
        return workloads.get(name, size)
    except DiagnosticError as exc:
        raise SystemExit(str(exc))


def _resolve_device(name: Optional[str]):
    """``--device`` string -> FPGADevice (None passes through)."""
    if name is None:
        return None
    from repro.hls.device import get_device

    try:
        return get_device(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _validated(options):
    """``options.validate()``, a bad value exiting with its one-line message."""
    try:
        return options.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))


def _load_schedule(function, path: str) -> None:
    """``--load-schedule``: a missing or malformed file exits with one line."""
    from repro.dsl.serialize import load_schedule

    try:
        load_schedule(function, path)
    except (OSError, ValueError) as exc:  # JSON and schedule format errors
        raise SystemExit(f"cannot load schedule {path!r}: {exc}")


def _add_device_flag(parser) -> None:
    parser.add_argument(
        "--device", metavar="NAME", default=None,
        help="target FPGA part from the device zoo (e.g. xc7z020, "
             "xczu9eg, xc7z020@50%%@200mhz); default: the paper's xc7z020",
    )


def cmd_list(args) -> int:
    from repro import workloads

    for suite_name, suite_names in workloads.suites().items():
        print(f"{suite_name}:")
        for name in suite_names:
            print(f"  {name}")
    return 0


def _single_kernel_only(args, workload, options: Dict[str, object]) -> None:
    """Refuse every option given (truthy) in ``options`` on a dataflow design."""
    from repro.dataflow import DataflowDesign

    # Schedule files, testbenches and cosim exist per kernel, not per design.
    if not isinstance(workload, DataflowDesign):
        return
    for option, given in options.items():
        if given:
            raise SystemExit(
                f"{option} applies to single-kernel workloads, not the "
                f"dataflow design {args.workload!r}"
            )


def _print_ir(workload, result) -> None:
    """``--emit mlir``: the lowered affine IR, one function per stage --
    the DSE result's design, else the installed schedule lowered."""
    from repro.affine import print_func
    from repro.dataflow import DataflowDesign

    # Only a design has stages, each lowered on its own.
    if not isinstance(workload, DataflowDesign):
        print(print_func(workload.lower() if result is None else result.func_op))
        return
    for stage in workload.topo_order():
        print(f"// stage {stage.name}")
        lowered = stage.function.lower() if result is None else result.stage_func_ops[stage.name]
        print(print_func(lowered))


def cmd_compile(args) -> int:
    workload = _build_workload(args.workload, args.size)
    _single_kernel_only(args, workload, {
        "--load-schedule": args.load_schedule,
        "--save-schedule": args.save_schedule,
        "--cosim": args.cosim,
        "--emit testbench": args.emit == "testbench",
    })

    if args.load_schedule:
        _load_schedule(workload, args.load_schedule)
        print(f"// schedule loaded from {args.load_schedule}", file=sys.stderr)

    device = _resolve_device(args.device)
    result = None
    if args.dse:
        from repro.dse.options import DseOptions

        options = _validated(
            DseOptions(resource_fraction=args.resource_fraction, device=device)
        )
        result = workload.auto_DSE(options=options)
        for line in result.summary(args.workload).splitlines():
            print(f"// {line}", file=sys.stderr)

    if args.save_schedule:
        from repro.dsl.serialize import save_schedule

        try:
            save_schedule(workload, args.save_schedule)
        except OSError as exc:
            raise SystemExit(f"cannot save schedule {args.save_schedule!r}: {exc}")
        print(f"// schedule saved to {args.save_schedule}", file=sys.stderr)

    emit = args.emit
    if emit in ("c", "all"):
        print((workload if result is None else result).codegen())
    if emit in ("mlir", "all"):
        _print_ir(workload, result)
    if emit in ("report", "all"):
        report = workload.estimate(device=device) if result is None else result.report
        print(report.summary())
        for loop in report.loops:
            print("  ", loop)
    if emit == "testbench":
        from repro.hlsgen.testbench import generate_testbench

        print(generate_testbench(workload))
    if args.cosim:
        from repro.hlsgen.testbench import cosimulate

        cosim = cosimulate(workload)
        status = "MATCH" if cosim.matched else f"MISMATCH {cosim.mismatches()}"
        print(f"// co-simulation: {status}", file=sys.stderr)
        return 0 if cosim.matched else 1
    return 0


def _resume_hint(args, checkpoint: str) -> str:
    hint = "python -m repro dse " + ("--all" if args.all else args.workload)
    if args.size is not None:
        hint += f" --size {args.size}"
    if args.device is not None:
        hint += f" --device {args.device}"
    if args.resource_fraction != 1.0:
        hint += f" --resource-fraction {args.resource_fraction}"
    return hint + f" --resume {checkpoint}"


def _interrupted(args, message: str, checkpoint) -> int:
    """Exit 130 for an interrupted `repro dse`, naming how to resume."""
    print(message, file=sys.stderr)
    if checkpoint:
        kind = "directory" if args.all else "journal"
        print(f"checkpoint {kind}: {checkpoint}", file=sys.stderr)
        print(f"resume with: {_resume_hint(args, checkpoint)}", file=sys.stderr)
    return 130


def _resolve_objective(args) -> str:
    """Fold ``--pareto`` shorthand into the ``--objective`` spec."""
    if args.pareto:
        if args.objective != "single":
            raise SystemExit(
                "--pareto and --objective are mutually exclusive "
                "(--pareto is shorthand for --objective pareto)"
            )
        return "pareto"
    return args.objective


#: What `repro dse --all` sweeps, in order: the paper's Table III
#: polybench workloads.
ALL_WORKLOADS = ("gemm", "bicg", "gesummv", "2mm")


def _print_frontier(result, prefix: str = "") -> None:
    if result.frontier is not None:
        from repro.dse.pareto import frontier_summary, parse_objective

        text = frontier_summary(result.frontier, parse_objective(result.objective))
        print(_indent(text, prefix) if prefix else text)


def _cmd_dse_all(args, options, tracer) -> int:
    """`repro dse --all`: one sweep per workload, in process and in order.

    A workload that raises prints ``FAILED`` and the others still run.
    ``--checkpoint DIR`` journals each sweep to
    ``DIR/<workload>[-<size>].journal``; ``--resume DIR`` resumes every
    workload whose journal exists there and journals the rest.
    """
    from repro import workloads
    from repro.dse.stats import DseStats

    directory = args.resume or args.checkpoint
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    results = []
    failed = False
    for name in ALL_WORKLOADS:
        label, stem = name, name
        if args.size is not None:
            label, stem = f"{name}({args.size})", f"{name}-{args.size}"
        run_options = options
        if directory is not None:
            journal = os.path.join(directory, f"{stem}.journal")
            run_options = options.replace(
                checkpoint=journal,
                resume=args.resume is not None and os.path.exists(journal),
            )
        try:
            result = workloads.get(name, args.size).auto_DSE(options=run_options)
        except KeyboardInterrupt:
            # Interrupted outside a search loop (the loop itself catches
            # SIGINT, flushes the checkpoint, and degrades gracefully).
            return _interrupted(
                args, "\ninterrupted before a best design was found", directory
            )
        except Exception as exc:
            print(f"{label}: FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed = True
            continue
        results.append((label, result))
        print(
            f"{label}: {result.evaluations} evaluations in "
            f"{result.dse_time_s:.3f}s, tiles {result.tile_vectors()}"
        )
        _print_frontier(result, "  ")
        for candidate in result.quarantine:
            print(f"  {label} quarantined: {candidate.diagnostic.oneline()}")
        _print_over_budget(result, f"{label}: ")
        if result.stats.interrupted:
            return _interrupted(
                args, "sweep interrupted; stopped at best design found", directory
            )
    if args.stats:
        # Per-workload counters first, then the merge, whose totals are
        # the sum of the blocks above.
        for label, result in results:
            print()
            print(f"workload {label}:")
            print(_indent(result.stats.summary()))
        print()
        print("merged (totals are the sum of the workloads above):")
        print(_indent(DseStats.merge([r.stats for _, r in results]).summary()))
        _print_profile(tracer)
    if failed:
        return 2
    if any(result.degraded for _, result in results) and not args.allow_degraded:
        return _refuse_degraded("designs")
    return 0


def _refuse_degraded(designs: str) -> int:
    """Exit 3: a degraded sweep without ``--allow-degraded``."""
    print(
        "sweep degraded (quarantined candidates, budget exhausted or a design "
        "over the resource budget); pass --allow-degraded to accept the best "
        f"{designs} found",
        file=sys.stderr,
    )
    return 3


def _print_over_budget(result, prefix: str = "") -> None:
    """The ``DSE009`` line of a returned design that does not fit."""
    for diagnostic in result.diagnostics:
        if diagnostic.code == "DSE009":
            print(prefix + diagnostic.oneline(), file=sys.stderr)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def cmd_dse(args) -> int:
    from repro.diagnostics import DiagnosticError
    from repro.dse.options import DseOptions

    objective = _resolve_objective(args)
    if args.workload is None and not args.all:
        raise SystemExit("a workload name is required unless --all is given")
    options = _validated(DseOptions(
        device=_resolve_device(args.device),
        resource_fraction=args.resource_fraction,
        cache=not args.no_cache,
        candidate_timeout_s=args.candidate_timeout,
        time_budget_s=args.time_budget,
        objective=objective,
    ))
    if args.all:
        with _run_traced(args) as tracer:
            return _cmd_dse_all(args, options, tracer)
    workload = _build_workload(args.workload, args.size)
    checkpoint = args.resume or args.checkpoint
    options = options.replace(checkpoint=checkpoint, resume=args.resume is not None)
    try:
        with _run_traced(args) as tracer:
            result = workload.auto_DSE(options=options)
    except DiagnosticError as exc:
        print(exc.diagnostic.render(), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Interrupted outside the search loop (the loop itself catches
        # SIGINT, flushes the checkpoint, and degrades gracefully).
        return _interrupted(
            args, "\ninterrupted before a best design was found", checkpoint
        )
    print(result.summary(args.workload))
    print(result.report.summary())
    _print_over_budget(result)
    _print_frontier(result)
    if result.quarantine:
        print(f"quarantined {len(result.quarantine)} candidate(s):")
        for candidate in result.quarantine:
            print(
                f"  parallelism {candidate.parallelism}: "
                f"{candidate.diagnostic.oneline()}"
            )
    if args.stats:
        print()
        print(result.stats_summary())
        _print_profile(tracer)
    if result.stats.interrupted:
        return _interrupted(
            args, "sweep interrupted; stopped at best design found", checkpoint
        )
    if result.degraded and not args.allow_degraded:
        return _refuse_degraded("design")
    return 0


def cmd_verify(args) -> int:
    from repro.trace import render_metrics

    function = _build_workload(args.workload, args.size)
    _single_kernel_only(args, function, {"--load-schedule": args.load_schedule})
    if args.load_schedule:
        _load_schedule(function, args.load_schedule)
    with _run_traced(args) as tracer:
        engine = function.verify()
    print(engine.render())
    if args.stats:
        _print_profile(tracer)
        print()
        print(render_metrics(tracer))
    return 1 if engine.has_errors else 0


def cmd_trace(args) -> int:
    """`repro trace <workload>`: profile one compile (or DSE) end to end."""
    from repro import trace as trace_mod
    from repro.trace import render_metrics, render_text_profile

    function = _build_workload(args.workload, args.size)
    device = _resolve_device(args.device)
    with trace_mod.tracing() as tracer:
        if args.dse:
            from repro.dse.options import DseOptions

            function.auto_DSE(options=DseOptions(device=device))
        else:
            function.estimate(device=device)
    print(render_text_profile(tracer, min_fraction=0.001))
    print()
    print(render_metrics(tracer))
    if args.trace:
        _export_trace(tracer, args.trace)
    return 0


def _cmd_fuzz_server(args, workloads, sizes) -> int:
    """``repro fuzz --server URL``: run the campaign as a serve job.

    The daemon executes the same deterministic campaign in a sandboxed
    worker and this side prints the identical summary line, so the two
    paths are interchangeable in scripts.
    """
    from repro.serve import ServeClient

    with ServeClient(args.server) as client:
        return _run_fuzz_job(client, args, workloads, sizes)


def _run_fuzz_job(client, args, workloads, sizes) -> int:
    from repro.serve import ServerError

    if not client.health():
        raise SystemExit(f"no repro serve daemon at {args.server}")
    options = {"seed": args.seed, "trials": args.trials}
    if args.max_directives != 6:
        options["max_directives"] = args.max_directives
    if args.time_budget is not None:
        options["time_budget_s"] = args.time_budget
    if workloads is not None:
        options["workloads"] = list(workloads)
    if sizes is not None:
        options["sizes"] = list(sizes)
    try:
        record = client.run(kind="fuzz", options=options)
    except (ServerError, TimeoutError) as exc:
        raise SystemExit(str(exc))
    if record["status"] != "done":
        detail = record.get("error") or record["status"]
        code = record.get("code")
        raise SystemExit(
            f"fuzz job {record.get('job', '?')} {record['status']}"
            + (f" [{code}]" if code else "") + f": {detail}"
        )
    summary = record["result"]["design"]
    print(
        f"fuzz campaign (via {args.server}): seed={summary['seed']} "
        f"trials={summary['trials_run']}/{summary['trials_requested']} "
        f"passed={summary['passed']} mismatches={summary['mismatches']} "
        f"crashes={summary['crashes']}"
    )
    for failure in summary.get("failures", ()):
        print(json.dumps(failure), file=sys.stderr)
    return 1 if (summary["mismatches"] or summary["crashes"]) else 0


def cmd_fuzz(args) -> int:
    """`repro fuzz`: differential fuzzing over the legal schedule space."""
    from repro.fuzz import FuzzOptions, run_campaign

    workloads = (
        tuple(w.strip() for w in args.workloads.split(",") if w.strip())
        if args.workloads
        else None
    )
    try:
        sizes = (
            tuple(int(s) for s in args.sizes.split(",") if s.strip())
            if args.sizes
            else None
        )
    except ValueError:
        raise SystemExit(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if args.server:
        return _cmd_fuzz_server(args, workloads, sizes)
    options = FuzzOptions(
        seed=args.seed,
        trials=args.trials,
        max_directives=args.max_directives,
        time_budget_s=args.time_budget,
        out_dir=args.out,
    )
    if workloads is not None:
        options.workloads = workloads
    if sizes is not None:
        options.sizes = sizes
    try:
        options.validate()
        if args.out:
            # Before the campaign, not after it: the reproducers land here.
            os.makedirs(args.out, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        raise SystemExit(str(exc))
    with _run_traced(args) as tracer:
        campaign = run_campaign(options)
    print(
        f"fuzz campaign: seed={options.seed} trials={campaign.trials_run}"
        f"/{options.trials} passed={campaign.passed} "
        f"mismatches={len(campaign.mismatches)} crashes={len(campaign.crashes)} "
        f"({campaign.elapsed_s:.1f}s)"
    )
    for diagnostic in campaign.engine.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    if campaign.repro_paths:
        print("reproducers:", file=sys.stderr)
        for path in campaign.repro_paths:
            print(f"  {path}", file=sys.stderr)
    if args.stats:
        by_workload: Dict[str, int] = {}
        for result in campaign.results:
            by_workload[result.workload] = by_workload.get(result.workload, 0) + 1
        print()
        print("trials per workload:")
        for name in sorted(by_workload):
            print(f"  {name}: {by_workload[name]}")
        _print_profile(tracer)
    return 1 if campaign.failures else 0


def cmd_serve(args) -> int:
    """`repro serve`: the persistent fault-isolated compile daemon."""
    from repro.serve.server import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers is not None else 2,
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
        job_timeout_s=args.job_timeout,
        drain_grace_s=args.drain_grace,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))
    return run_server(config)


def cmd_experiment(args) -> int:
    from repro.evaluation import ALL_EXPERIMENTS

    if args.name == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.name in ALL_EXPERIMENTS:
        names = [args.name]
    else:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        raise SystemExit(f"unknown experiment {args.name!r}; available: {known}, all")
    if args.size is not None and args.size < 1:
        from repro.diagnostics import DiagnosticError

        raise SystemExit(str(DiagnosticError(
            f"experiment {args.name!r}: size must be a positive integer, got {args.size!r}",
            code="WLD002",
        )))

    for name in names:
        experiment = ALL_EXPERIMENTS[name]
        if args.size is None:
            experiment.main()
        elif "size" in experiment.quick:
            experiment.main(size=args.size)
        else:
            print(f"note: --size does not apply to {name}; ignored", file=sys.stderr)
            experiment.main()
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="POM reproduction: compile workloads to FPGA accelerators "
                    "and regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(func=cmd_list)

    compile_p = sub.add_parser("compile", help="compile one workload")
    compile_p.add_argument("workload", help="workload name (see `list`)")
    compile_p.add_argument("--size", type=int, default=None, help="problem size")
    compile_p.add_argument("--dse", action="store_true", help="run auto-DSE first")
    compile_p.add_argument(
        "--resource-fraction", type=float, default=1.0,
        help="fraction of the device budget available to the DSE",
    )
    _add_device_flag(compile_p)
    compile_p.add_argument(
        "--emit", choices=("c", "mlir", "report", "testbench", "all"), default="c",
        help="what to print (default: HLS C)",
    )
    compile_p.add_argument(
        "--cosim", action="store_true",
        help="compile + run the C testbench and compare with the model",
    )
    compile_p.add_argument(
        "--save-schedule", metavar="PATH", default=None,
        help="write the (possibly DSE-found) schedule as JSON",
    )
    compile_p.add_argument(
        "--load-schedule", metavar="PATH", default=None,
        help="apply a previously saved JSON schedule instead of searching",
    )
    compile_p.set_defaults(func=cmd_compile)

    dse_p = sub.add_parser("dse", help="run auto-DSE and report the search profile")
    dse_p.add_argument(
        "workload", nargs="?", default=None,
        help="workload name (see `list`); omit with --all",
    )
    dse_p.add_argument("--size", type=int, default=None, help="problem size")
    dse_p.add_argument(
        "--all", action="store_true",
        help="sweep the standard 4-workload set, one workload after another",
    )
    _add_run_flags(dse_p, checkpoint=True, stats=True, trace=True)
    _add_device_flag(dse_p)
    dse_p.add_argument(
        "--resource-fraction", type=float, default=1.0,
        help="fraction of the device budget available to the DSE",
    )
    dse_p.add_argument(
        "--no-cache", action="store_true",
        help="disable all DSE memoization layers (for measurement)",
    )
    dse_p.add_argument(
        "--resume", metavar="PATH", default=None,
        help="resume a sweep from a checkpoint journal written by --checkpoint "
             "(with --all, a directory of them)",
    )
    dse_p.add_argument(
        "--candidate-timeout", type=float, metavar="SECONDS", default=None,
        help="quarantine any candidate whose evaluation exceeds this budget",
    )
    dse_p.add_argument(
        "--time-budget", type=float, metavar="SECONDS", default=None,
        help="stop the sweep at this wall-clock budget, keeping the best design",
    )
    dse_p.add_argument(
        "--allow-degraded", action="store_true",
        help="exit 0 even when candidates were quarantined or a budget was hit",
    )
    dse_p.add_argument(
        "--objective", metavar="SPEC", default="single",
        help="objective spec: 'single' (default), 'pareto[:axes]' "
             "(dominance-pruned frontier over latency/dsp/bram/lut/ff), "
             "or 'weighted:axis=w,...' (frontier + weighted selection)",
    )
    dse_p.add_argument(
        "--pareto", action="store_true",
        help="shorthand for --objective pareto (latency,dsp frontier)",
    )
    dse_p.set_defaults(func=cmd_dse)

    verify_p = sub.add_parser(
        "verify",
        help="run the schedule-legality preflight and IR verifier on a workload",
    )
    verify_p.add_argument("workload", help="workload name (see `list`)")
    verify_p.add_argument("--size", type=int, default=None, help="problem size")
    verify_p.add_argument(
        "--load-schedule", metavar="PATH", default=None,
        help="apply a saved JSON schedule before verifying",
    )
    _add_run_flags(verify_p, stats=True, trace=True)
    verify_p.set_defaults(func=cmd_verify)

    trace_p = sub.add_parser(
        "trace",
        help="profile one workload's compile (or DSE with --dse) and "
             "print the top-down span profile",
    )
    trace_p.add_argument("workload", help="workload name (see `list`)")
    trace_p.add_argument("--size", type=int, default=None, help="problem size")
    trace_p.add_argument(
        "--dse", action="store_true",
        help="trace a full auto-DSE sweep instead of a single compile",
    )
    _add_run_flags(trace_p, trace=True)
    _add_device_flag(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="fuzz the legal schedule space: random legal schedules checked "
             "differentially (compiled simulation vs DSL reference)",
    )
    fuzz_p.add_argument(
        "--seed", type=int, default=0,
        help="master seed; the whole campaign is deterministic in it",
    )
    fuzz_p.add_argument(
        "--trials", type=int, default=200, metavar="N",
        help="number of schedule trials to run (default: 200)",
    )
    fuzz_p.add_argument(
        "--time-budget", type=float, metavar="SECONDS", default=None,
        help="stop drawing new trials at this wall-clock budget (FUZ004)",
    )
    fuzz_p.add_argument(
        "--workloads", metavar="A,B,...", default=None,
        help="comma-separated workload names (default: a cheap all-family set)",
    )
    fuzz_p.add_argument(
        "--sizes", metavar="N,M,...", default=None,
        help="comma-separated problem sizes (default: 8,12)",
    )
    fuzz_p.add_argument(
        "--max-directives", type=int, default=6, metavar="N",
        help="maximum directives per generated schedule (default: 6)",
    )
    fuzz_p.add_argument(
        "--out", metavar="DIR", default=None,
        help="write minimized repro scripts and summary.json here",
    )
    fuzz_p.add_argument(
        "--server", metavar="URL", default=None,
        help="run the campaign on a `repro serve` daemon instead of "
             "in-process (e.g. http://127.0.0.1:8573)",
    )
    _add_run_flags(fuzz_p, stats=True, trace=True)
    fuzz_p.set_defaults(func=cmd_fuzz)

    serve_p = sub.add_parser(
        "serve",
        help="run the persistent compile server: DSE/verify/trace/fuzz jobs "
             "over local HTTP+JSON with a warm content-addressed result store",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1; this is a local daemon)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8573,
        help="TCP port (default: 8573; 0 picks a free port)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="sandboxed worker processes (default: 2)",
    )
    serve_p.add_argument(
        "--state-dir", default=".repro-serve", metavar="DIR",
        help="result store + job ledger + checkpoint journals "
             "(default: .repro-serve)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="max pending jobs before 429 backpressure (default: 8)",
    )
    serve_p.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall budget, fed to the engine's deadline machinery "
             "(plus a hard kill for unresponsive workers)",
    )
    serve_p.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="how long SIGTERM waits for running jobs before checkpointing "
             "them for the next start (default: 5)",
    )
    serve_p.set_defaults(func=cmd_serve)

    experiment_p = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment_p.add_argument("name", help="experiment id (e.g. table3) or 'all'")
    experiment_p.add_argument("--size", type=int, default=None)
    experiment_p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
