"""Regenerate the entire evaluation into one report file.

``python -m repro.evaluation.report_all [--quick] [--jobs N]
[--output PATH]`` runs every experiment (paper-scale by default, each
experiment's reduced configuration with ``--quick``), checks each
experiment's paper claims on its result, and writes a markdown/text
report -- the mechanism used to refresh ``EXPERIMENTS.md`` after model
changes.  A claim that does not hold is an ``RPT002`` failure and makes
the exit status 1, as a failed experiment does.

``--jobs N`` shards the experiments across worker processes
(:func:`repro.util.run_ordered`): each experiment runs isolated in its
own process with its own memo tables, and the report is assembled in
the fixed ``ALL_EXPERIMENTS`` order regardless of which worker finished
first, so parallel and sequential reports have identical structure.  A
worker that dies without reporting becomes a structured ``RPT001``
failure for exactly its experiment instead of aborting the run.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace
from typing import List, Optional

from repro import trace as _trace
from repro.diagnostics import Diagnostic, Severity, SourceLocation
from repro.evaluation import ALL_EXPERIMENTS
from repro.evaluation.frameworks import Experiment, format_table
from repro.session import SessionContext
from repro.util import atomic_write


def _experiment_kwargs(experiment: Experiment, quick: bool, device: Optional[str]) -> dict:
    """The kwargs ``experiment.main`` gets (``device``: a picklable zoo name)."""
    kwargs = dict(experiment.quick) if quick else {}
    if device is not None and experiment.device_aware:
        kwargs["device"] = device
    return kwargs


def _run_experiment(payload: tuple) -> dict:
    """Worker entry: run one experiment, check its claims, capture stdout
    and any failure.

    Module-level (picklable) so :func:`repro.util.run_ordered` can ship
    it to a worker process; also the shared implementation of the
    sequential path, so both produce byte-identical report sections.
    When tracing is requested, the experiment records into its own local
    tracer (never a fork-inherited one) and ships the
    :class:`~repro.trace.TraceData` back for deterministic adoption.
    """
    name, kwargs, want_trace = payload
    capture = io.StringIO()
    start = time.perf_counter()
    error: Optional[str] = None
    verdicts = []
    tracer = _trace.Tracer() if want_trace else None
    try:
        experiment = ALL_EXPERIMENTS[name]
        with replace(SessionContext.current(), tracer=tracer).activate():
            with redirect_stdout(capture):
                result = experiment.main(**kwargs)
            verdicts = experiment.verdicts(result)
    except Exception as exc:  # keep the report going; record the failure
        error = f"{type(exc).__name__}: {exc}"
    return {
        "text": capture.getvalue(),
        "error": error,
        "verdicts": verdicts,
        "elapsed_s": time.perf_counter() - start,
        "trace": tracer.export_data() if tracer is not None else None,
    }


def run_all(
    quick: bool = False,
    stream=None,
    failures: Optional[List[Diagnostic]] = None,
    jobs: Optional[int] = None,
    trace=None,
    device: Optional[str] = None,
) -> str:
    """Run every experiment; returns (and optionally streams) the report.

    A failing experiment does not stop the run: it becomes a structured
    ``RPT001`` diagnostic (experiment name, exception class, message)
    rendered in place and repeated in the closing summary section.  Each
    experiment's claims are checked on its result in the process that
    ran it; the claims table follows the experiments, and a claim that
    does not hold becomes an ``RPT002`` diagnostic.
    Callers that need the records programmatically pass a ``failures``
    list to collect them.  ``jobs`` > 1 runs experiments in worker
    processes, merged deterministically in ``ALL_EXPERIMENTS`` order.

    ``trace`` enables tracing: pass a path to write a Chrome
    ``trace_event`` JSON there, or a live
    :class:`~repro.trace.Tracer` to record into.  Each experiment
    becomes one named track, adopted in ``ALL_EXPERIMENTS`` order
    whatever the workers' finish order.
    """
    out = io.StringIO()
    if failures is None:
        failures = []
    trace_path: Optional[str] = None
    if isinstance(trace, str):
        trace_path = trace
        tracer = _trace.Tracer()
    else:
        tracer = trace

    def emit(text: str = "") -> None:
        out.write(text + "\n")
        if stream is not None:
            print(text, file=stream, flush=True)

    emit("# Evaluation report")
    emit(f"mode: {'quick' if quick else 'paper-scale'}")
    if device is not None:
        emit(f"device: {device} (device-aware experiments only)")
    emit()
    payloads = [
        (name, _experiment_kwargs(experiment, quick, device), tracer is not None)
        for name, experiment in ALL_EXPERIMENTS.items()
    ]
    if jobs is not None and jobs > 1:
        from repro.util import run_ordered

        outcomes = run_ordered(_run_experiment, payloads, jobs)
        runs = [
            outcome.value
            if outcome.ok
            else {"text": "", "error": outcome.error, "verdicts": [],
                  "elapsed_s": 0.0, "trace": None}
            for outcome in outcomes
        ]
    else:
        runs = [_run_experiment(payload) for payload in payloads]
    if tracer is not None:
        for tid, ((name, _, _), run) in enumerate(zip(payloads, runs), start=1):
            if run.get("trace") is not None:
                tracer.adopt_thread(run["trace"], tid, f"experiment {name}")
    errors = 0
    for (name, _, _), run in zip(payloads, runs):
        emit("## " + name)
        emit(run["text"].rstrip())
        if run["error"] is not None:
            errors += 1
            _fail(failures, emit, "RPT001", name, f"experiment {name!r} failed: {run['error']}")
        emit(f"[{name}: {run['elapsed_s']:.1f}s]")
        emit()
    emit("## claims")
    verdicts = [(name, v) for (name, _, _), run in zip(payloads, runs) for v in run["verdicts"]]
    emit(format_table(["Experiment", "Claim", "Holds", "Measured"], [
        [name, v.claim, v.status, "; ".join(map(str, v.readings))] for name, v in verdicts
    ]))
    for name, v in verdicts:
        if v.missed:
            missed = "; ".join(map(str, v.missed))
            _fail(failures, emit, "RPT002", name, f"claim {name}: {v.claim!r} does not hold: {missed}")
    emit()
    emit("## summary")
    total = len(ALL_EXPERIMENTS)
    emit(f"{total - errors}/{total} experiments succeeded")
    declared = sum(len(experiment.claims) for experiment in ALL_EXPERIMENTS.values())
    emit(f"{sum(v.holds for _, v in verdicts)}/{declared} claims hold")
    for diagnostic in failures:
        emit(diagnostic.oneline())
    if trace_path is not None:
        from repro.trace import export_chrome_trace

        export_chrome_trace(tracer, trace_path)
    return out.getvalue()


def _fail(failures: List[Diagnostic], emit, code: str, name: str, message: str) -> None:
    diagnostic = Diagnostic(Severity.ERROR, code, message, location=SourceLocation(function=name))
    failures.append(diagnostic)
    emit(diagnostic.render())


def summary_table() -> str:
    """EXPERIMENTS.md's summary table: one row per declared claim."""
    lines = ["| Experiment | Claim | Paper | Reproduced? |", "|---|---|---|---|"]
    for name, experiment in ALL_EXPERIMENTS.items():
        for claim in experiment.claims:
            status = f"◑ (not {', '.join(claim.partial)})" if claim.partial else "✅"
            lines.append(f"| {name} | {claim.name} | {claim.paper} | {status} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    # The run flags are spelled/documented identically to `repro dse`
    # and `repro verify` (docs/api.md).
    from repro.cli import _add_run_flags, _export_trace

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="each experiment's reduced configuration")
    _add_run_flags(parser, jobs=True, stats=True, trace=True)
    parser.add_argument(
        "--device", metavar="NAME", default=None,
        help="device-zoo part for device-aware experiments "
             "(e.g. xczu9eg, xc7z020@50%%)",
    )
    parser.add_argument("--output", default=None, help="write the report here")
    args = parser.parse_args(argv)
    if args.device is not None:
        from repro.hls.device import get_device

        try:
            get_device(args.device)  # fail fast; workers get the name
        except ValueError as exc:
            raise SystemExit(str(exc))
    failures: List[Diagnostic] = []
    tracer = _trace.Tracer() if (args.trace or args.stats) else None
    report = run_all(
        quick=args.quick,
        stream=None if args.output else sys.stdout,
        failures=failures,
        jobs=args.jobs,
        trace=tracer,
        device=args.device,
    )
    if args.output:
        atomic_write(args.output, report)
        print(f"report written to {args.output}")
    if tracer is not None and args.stats:
        from repro.trace import render_metrics, render_text_profile

        print(render_text_profile(tracer, min_fraction=0.001), file=sys.stderr)
        print(render_metrics(tracer), file=sys.stderr)
    if tracer is not None and args.trace:
        _export_trace(tracer, args.trace)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
