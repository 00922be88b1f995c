"""Correctness checks run by the same command as the timings (untimed).

Each check returns ``None`` on success or a one-line failure.  The
functional oracle is always the DSL-level reference executor on a
*fresh, unscheduled* build of the input, so the reference never goes
through the lowering under test.
"""

from __future__ import annotations

import shutil
import subprocess
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from oplist import DATAFLOW_DESIGNS, FRACTIONS, KERNELS, PARETO_KERNELS, Op
from ops import Outcome, Session, in_process_design

#: Reduced problem size at which designs are simulated against the reference.
CHECK_SIZE = 16
#: Cosimulation compiles and runs C, ~0.1 s each: this many per run,
#: rotated over the kernels by the seed.
COSIM_PER_RUN = 3
#: doitgen's testbench disagrees with the model on `acc` whenever nr != nq
#: (unscheduled too, so it is the testbench, not a design); skipped until
#: ROADMAP item 4 makes cosimulation an oracle and fixes it.
COSIM_KNOWN_MISMATCH = ("doitgen",)
#: Serve cold results and uncached designs re-derived in process per run.
SAMPLED_CROSS_CHECKS = 6
ARRAY_SEED = 7

Check = Tuple[str, Optional[str]]  # (name, failure or None)


def _mismatched(expected: Dict[str, np.ndarray], got: Dict[str, np.ndarray]) -> List[str]:
    return sorted(
        name for name in expected
        if name not in got or not np.array_equal(expected[name], got[name])
    )


def functional(op: Op, outcome: Outcome) -> Optional[str]:
    """Compiled simulation of the chosen design == DSL reference."""
    from repro import workloads
    from repro.affine import simulate

    fresh = workloads.get(op.name, op.size)
    expected = fresh.allocate_arrays(seed=ARRAY_SEED)
    fresh.reference_execute(expected)
    got = workloads.get(op.name, op.size).allocate_arrays(seed=ARRAY_SEED)
    if op.kind == "dataflow":
        outcome.artifact.simulate(got)
    else:
        simulate(outcome.artifact.lower(), got)
    bad = _mismatched(expected, got)
    return f"simulated arrays differ from the reference: {bad}" if bad else None


def cosim(outcome: Outcome) -> Optional[str]:
    """Emitted C, compiled and run, checksums equal to the model's."""
    from repro.hlsgen.testbench import cosimulate

    result = cosimulate(outcome.artifact)
    if result.matched:
        return None
    return f"C checksums differ from the model: {result.mismatches()}"


def c_compiles(c_text: str) -> Optional[str]:
    """The emitted HLS C is at least valid C (pragmas commented out)."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    done = subprocess.run(
        [compiler, "-std=c99", "-fsyntax-only", "-x", "c", "-"],
        input=c_text.replace("#pragma HLS", "// #pragma HLS"),
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode == 0:
        return None
    return "emitted C does not compile: " + done.stderr.strip().splitlines()[0]


def have_c_compiler() -> bool:
    return (shutil.which("gcc") or shutil.which("cc")) is not None


def _guarded(name: str, check: Callable[[], Optional[str]]) -> Check:
    try:
        return name, check()
    except Exception as exc:  # a crashing check is a failed check, reported
        return name, f"{type(exc).__name__}: {exc}"


def _reduced_ops(workload: str, seed: int) -> List[Op]:
    """Every distinct input of a DSE workload at the reduced size."""
    def fraction(index: int) -> float:
        return FRACTIONS[(index + seed) % len(FRACTIONS)]

    if workload in ("kernel_dse", "kernel_dse_nocache"):
        kind = "dse" if workload == "kernel_dse" else "dse_nocache"
        return [Op(kind, name, CHECK_SIZE, fraction(i)) for i, name in enumerate(KERNELS)]
    if workload == "frontier_dse":
        return [
            Op("pareto", name, CHECK_SIZE, fraction(i)) for i, name in enumerate(PARETO_KERNELS)
        ] + [
            Op("dataflow", name, CHECK_SIZE, fraction(i)) for i, name in enumerate(DATAFLOW_DESIGNS)
        ]
    return []


def run_checks(
    session: Session,
    workload: str,
    seed: int,
    ops: Sequence[Op],
    outcomes: Sequence[Outcome],
    smoke: bool = False,
) -> Tuple[List[Check], int]:
    """All of a workload's checks: ``(results, skipped count)``.

    ``smoke`` re-sweeps every sixth input instead of every input.
    """
    from repro.serve import design_fingerprint

    results: List[Check] = []
    skipped = 0

    # Every input of the DSE workloads, re-swept at the reduced size by
    # the workload's own call, then simulated against the reference.
    reduced = _reduced_ops(workload, seed)[::6 if smoke else 1]
    cosim_from = (seed * COSIM_PER_RUN) % max(1, len(reduced))
    for index, op in enumerate(reduced):
        label = f"{op.kind}:{op.input_key}"
        try:
            outcome = session.describe(op, session.execute(op))
        except Exception as exc:
            results.append((f"sweep {label}", f"{type(exc).__name__}: {exc}"))
            continue
        results.append((f"sweep {label}", outcome.error))
        results.append(_guarded(f"functional {label}", lambda: functional(op, outcome)))
        wants_cosim = (index - cosim_from) % len(reduced) < COSIM_PER_RUN
        if wants_cosim and op.kind != "dataflow" and op.name not in COSIM_KNOWN_MISMATCH:
            if have_c_compiler():
                results.append(_guarded(f"cosim {label}", lambda: cosim(outcome)))
            else:
                skipped += 1

    # One input, one design: across passes, across cache modes, and
    # between the server and an in-process sweep.
    first: Dict[str, str] = {}
    for op, outcome in zip(ops, outcomes):
        if outcome.design is None:
            continue
        fingerprint = design_fingerprint(outcome.design)
        known = first.setdefault(op.input_key, fingerprint)
        if known != fingerprint:
            results.append((f"repeatable {op.input_key}", "design differs between two ops on one input"))
        if op.kind == "serve" and not op.arg and not outcome.counts.get("serve.cached"):
            results.append((f"store hit {op.input_key}", "a repeated request was not answered from the store"))

    sampled = [
        (op, outcome) for op, outcome in zip(ops, outcomes)
        if outcome.design is not None
        and (op.kind == "dse_nocache" or (op.kind == "serve" and op.arg))
    ][:SAMPLED_CROSS_CHECKS]
    for op, outcome in sampled:
        def same_in_process(op=op, outcome=outcome) -> Optional[str]:
            if design_fingerprint(in_process_design(op)) == design_fingerprint(outcome.design):
                return None
            return "design differs from an in-process cached sweep of the same request"
        results.append(_guarded(f"in-process {op.kind}:{op.input_key}", same_in_process))

    if workload == "dnn_dse":
        # Simulating a full-width DNN takes minutes and sweeping even a
        # narrow one takes as long as the timed op, so a run checks what
        # it can afford: the sweep was not degraded (already in `ok`) and
        # the C it emitted compiles.
        for op, outcome in zip(ops, outcomes):
            if outcome.c_text is None:
                continue
            if have_c_compiler():
                results.append(_guarded(
                    f"C compiles {op.input_key}", lambda text=outcome.c_text: c_compiles(text)
                ))
            else:
                skipped += 1
    return results, skipped
