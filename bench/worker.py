"""One workload in one fresh interpreter (spawned by ``run.py``).

Set-up runs from interpreter start to the first timed op: imports,
op-list generation, one untimed warm-up op per distinct code path, and
the server boot for ``serve_mix``.  Then, depending on ``--mode``:

* ``setup``  -- stop there (an extra ``setup_s`` sample);
* ``time``   -- the timed pass with tracing off, then the correctness checks;
* ``trace``  -- three passes over the same ops: untraced, with the span
  recorder, and under cProfile.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

import calibrate
import checks
import metrics
import oplist
from metrics import Pass
from oplist import Op
from ops import Outcome, Session
from paths import QOR_BASELINE_PATH, RESULTS_DIR
from profiler import PackageProfile
from spans import SpanRecorder

#: Calibrate after an op once this long has passed since the last
#: sample, so that millisecond ops are not drowned in calibration.
CALIBRATE_EVERY_S = 0.04
#: An op this long gets a burst of samples after it instead of one:
#: nothing can be sampled while it runs, and a single 4 ms sample is
#: itself 15% noisy.
LONG_OP_S = 1.0
BURST = 3 * calibrate.NEAREST

#: One small op per distinct code path, run before the clock starts.
WARM_UP = {
    "kernel_dse": [Op("dse", "gemm", 32, 0.5)],
    "kernel_dse_nocache": [Op("dse_nocache", "gemm", 32, 0.5)],
    "dnn_dse": [Op("dse", "3mm", 32, 0.5)],  # multi-node, like the DNNs
    "frontier_dse": [Op("pareto", "gemm", 32, 0.5), Op("dataflow", "image-pipeline", 16, 0.5)],
    "serve_mix": [Op("serve", "gemm", 32, 0.5, arg=1), Op("serve", "gemm", 32, 0.5)],
    "fuzz_verify": [Op("fuzz", "gemm", 8, arg=1), Op("fuzz", "image-pipeline", 8, arg=2)],
}


def run_pass(session, ops: List[Op], samples: list, observer=None):
    """Walk ``ops`` once, closed loop, single-threaded.

    ``observer`` (the span recorder or the profiler) is told where each
    op starts and stops; end-to-end passes have none.
    """
    done = Pass(ops=list(ops), samples=list(samples))
    if not done.samples:
        done.samples.append(calibrate.sample())
    for index, op in enumerate(ops):
        if observer is not None:
            observer.start(index)
        start = time.perf_counter()
        try:
            raw, failure = session.execute(op), None
        except Exception:
            raw, failure = None, traceback.format_exc(limit=8)
        end = time.perf_counter()
        if observer is not None:
            observer.stop()
        done.intervals.append((start, end))
        if failure is None:
            try:
                outcome = session.describe(op, raw)
            except Exception:
                outcome = Outcome(ok=False, error=traceback.format_exc(limit=8))
        else:
            outcome = Outcome(ok=False, error=failure)
        outcome.artifact = None  # whole Functions: too big to keep per op
        done.outcomes.append(outcome)
        del raw
        if end - start >= LONG_OP_S:
            done.samples.extend(calibrate.sample() for _ in range(BURST))
        elif time.perf_counter() - done.samples[-1][0] >= CALIBRATE_EVERY_S:
            done.samples.append(calibrate.sample())
    done.samples.append(calibrate.sample())
    return done


def fuzz_baseline_cycles(ops: List[Op]) -> List[int]:
    """fuzz_verify searches nothing, so its QoR is the estimator's
    verdict on each fuzzed input as built, unscheduled."""
    from repro import workloads
    from repro.dataflow import DataflowDesign
    from repro.dataflow.estimate import estimate_design
    from repro.pipeline import estimate
    from repro.serve import SessionContext

    known: Dict[str, int] = {}
    with SessionContext().activate():
        for op in ops:
            if op.input_key not in known:
                built = workloads.get(op.name, op.size)
                report = (
                    estimate_design(built) if isinstance(built, DataflowDesign) else estimate(built)
                )
                known[op.input_key] = report.total_cycles
    return [known[op.input_key] for op in ops]


def design_cycles(ops: List[Op], done) -> List[Optional[int]]:
    if ops and ops[0].kind == "fuzz":
        return fuzz_baseline_cycles(ops)
    return [outcome.cycles for outcome in done.outcomes]


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def failure_lines(ops, done, checks) -> List[str]:
    lines = [
        f"op {op.kind}:{op.input_key}: {outcome.error.strip().splitlines()[-1]}"
        for op, outcome in zip(ops, done.outcomes) if not outcome.ok
    ]
    return lines + [f"check {name}: {failure}" for name, failure in checks if failure]


@contextmanager
def warmed_session(workload: str):
    """A workload session with its warm-up ops already run."""
    with Session(workload) as session:
        for op in WARM_UP[workload]:
            outcome = session.describe(op, session.execute(op))
            if not outcome.ok:
                raise RuntimeError(f"warm-up op {op} failed: {outcome.error}")
        yield session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=oplist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace", "baseline"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    args = parser.parse_args(argv)

    if args.mode == "baseline":
        return write_qor_baseline()
    baseline = metrics.load_qor_baseline()
    if args.mode == "trace":
        ops = oplist.trace_ops(args.workload, args.seed, smoke=args.smoke)
    else:
        passes = 1 if args.smoke else oplist.passes_for(args.workload, args.seconds)
        ops = oplist.generate(args.workload, args.seed, passes, smoke=args.smoke)

    out: Dict[str, object] = {"workload": args.workload, "mode": args.mode, "ops": len(ops)}
    with warmed_session(args.workload) as session:
        samples = [calibrate.sample() for _ in range(BURST)]
        speed = median(seconds for _, seconds in samples)
        # Set-up is imports and small sweeps: it drifts with the machine
        # like any op, so it is speed-normalized like one.
        setup_raw = time.time() - args.spawned_at
        out["setup_raw_s"] = setup_raw
        out["setup_s"] = setup_raw * calibrate.CAL_REF_S / speed
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        timed = run_pass(session, ops, samples)
        qor_ratio, qor_absolute, qor_drift = metrics.qor_ratio_geomean(
            ops, design_cycles(ops, timed), baseline
        )
        if args.mode == "time":
            values = metrics.end_to_end(timed, qor_ratio)
            results, skipped = checks.run_checks(
                session, args.workload, args.seed, ops, timed.outcomes, smoke=args.smoke
            )
    if args.mode == "trace":
        values, results, skipped = trace_passes(args.workload, ops, timed, qor_absolute)

    values["setup_s"] = out["setup_s"]
    values["peak_rss_mb"] = peak_rss_mb(args.workload == "serve_mix")
    out.update(
        metrics=values,
        speed_index=calibrate.speed_index(timed.samples),
        raw_op_s_p50=median(timed.raw()),
        calibration_samples=len(timed.samples),
        qor_drift=qor_drift,
        attempted=len(ops) + len(results),
        failed=sum(not o.ok for o in timed.outcomes) + sum(1 for _, f in results if f),
        checks={"run": len(results), "skipped": skipped},
        failures=failure_lines(ops, timed, results),
    )
    print(json.dumps(out))
    return 0


def trace_passes(workload, ops, untraced, qor_absolute):
    """The span pass and the profile pass over the ops just timed, each
    in a session of its own (a fresh server, fresh fuzz tables) so that
    all three passes do the same work."""
    recorder = SpanRecorder()
    with warmed_session(workload) as session, recorder:
        spanned = run_pass(session, ops, [], observer=recorder)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    recorder.write_chrome_trace(os.path.join(RESULTS_DIR, f"{workload}.spans.json"))

    profiled = None
    packages: Dict[str, Dict[str, float]] = {}
    total_calls = 0
    # serve_mix's work happens in server threads and worker processes
    # that a profiler in this thread cannot see.
    if workload != "serve_mix":
        profile = PackageProfile()
        with warmed_session(workload) as session:
            profiled = run_pass(session, ops, [], observer=profile)
        packages, total_calls = profile.by_package()

    values = metrics.per_layer(
        untraced, spanned, recorder.summary(), recorder.root_seconds(),
        profiled, packages, total_calls, qor_absolute,
    )
    values["trace.unresolved_entry_points"] = float(len(recorder.unresolved))
    failed_ops = [
        (f"traced op {op.kind}:{op.input_key}", outcome.error)
        for done in (spanned, profiled) if done is not None
        for op, outcome in zip(ops, done.outcomes) if not outcome.ok
    ]
    return values, failed_ops, 0


def write_qor_baseline() -> int:
    """Re-define the QoR ruler: sweep every input any seed can draw."""
    every = oplist.all_inputs()
    swept = [op for op in every if op.kind != "fuzz"]
    fuzzed = [op for op in every if op.kind == "fuzz"]
    table: Dict[str, int] = {}
    with Session("kernel_dse") as session:
        for op in swept:
            outcome = session.describe(op, session.execute(op))
            if not outcome.ok:
                raise RuntimeError(f"{op}: {outcome.error}")
            table[metrics.qor_key(op)] = outcome.cycles
            print(f"bench: baseline {metrics.qor_key(op)} = {outcome.cycles}", file=sys.stderr)
    table.update(zip(map(metrics.qor_key, fuzzed), fuzz_baseline_cycles(fuzzed)))
    with open(QOR_BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "what": "report.total_cycles of the design chosen for every input a seed "
                    "can draw, at the commit that defined the benchmark; "
                    "qor_cycles_geomean is the geometric mean of cycles / this",
            "cycles": dict(sorted(table.items())),
        }, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
