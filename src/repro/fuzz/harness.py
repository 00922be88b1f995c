"""Differential trial execution, shrinking, and repro-script emission.

One *trial* is: build a workload, draw a random legal schedule
(:mod:`repro.fuzz.generator`), then run the transformed program two
ways on identical inputs --

* **reference**: ``reference_execute``, the DSL-level meaning of the
  algorithm -- declaration order, interleaved only as the structural
  (``after``/``fuse``) directives say, run as a nest built from the DSL
  alone, never through the layers under test;
* **simulated**: ``simulate``, the full pipeline (``lower()``) followed
  by the compiled numpy simulator (:func:`repro.affine.compile.simulate`).

A ``Function`` and a ``DataflowDesign`` answer both calls, so one code
path serves both kinds.  The comparison is *exact* (``np.array_equal``):
a legal schedule reorders statement instances without changing any
cell's operation sequence, and the compiled simulator is bit-identical
to the interpreter by contract, so the first differing bit is a bug.  On
a mismatch the trial re-runs the simulation in reference mode (through
the tree-walking interpreter) to attribute the failure: if the
interpreter agrees with the reference, the compiled simulator is wrong
(``oracle="sim"``); if it agrees with the simulation, the
transformation/lowering pipeline is wrong (``oracle="transform"``).

Failures are shrunk by greedy one-at-a-time removal of schedule
directives and partitions -- keeping only removals that leave the
schedule preflight-clean *and* still failing -- and written out as
standalone repro scripts that exit 1 while the bug reproduces.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dsl.serialize import schedule_from_dict, schedule_to_dict
from repro.isl.constraint import EliminationBlowup
from repro.preflight import preflight_schedule
from repro.util.atomic import atomic_write

#: Maximum differential re-executions spent shrinking one failure.
SHRINK_BUDGET = 120


def workload_factory(name: str):
    """Look up a workload builder by name (registry-backed).

    Unknown names raise the registry's ``WLD001``
    :class:`~repro.diagnostics.DiagnosticError`.
    """
    from repro import workloads

    workloads.kind_of(name)  # WLD001 up front, not at first build
    return lambda size=None: workloads.get(name, size)


def build_workload(name: str, size: int):
    """A Function -- or a DataflowDesign for dataflow workload names."""
    return workload_factory(name)(size)


def _schedule_target(workload, stage_name: Optional[str]):
    """The Function a schedule applies to: a kernel, or one design stage."""
    if stage_name is None:
        return workload
    return workload.stages[stage_name].function


def _scheduled_stage(workload, schedule: Dict[str, Any]):
    """The Function a trial's schedule applies to, with it applied.

    The schedule dict's ``"stage"`` key names the dataflow stage it
    targets (dataflow trials mutate exactly one stage per trial; the
    differential still runs the whole pipeline); without one it is the
    workload's own.
    """
    target = _schedule_target(workload, schedule.get("stage"))
    serialized = {
        key: schedule[key]
        for key in ("directives", "partitions")
        if key in schedule
    }
    schedule_from_dict(target, serialized)
    return target


@dataclass
class TrialResult:
    """Outcome of one differential trial (picklable, JSON-able)."""

    workload: str
    size: int
    seed: int
    kind: str  # "pass" | "mismatch" | "crash"
    schedule: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    stage: Optional[str] = None          # where a crash happened
    mismatch_arrays: List[str] = field(default_factory=list)
    oracle: Optional[str] = None         # "sim" | "transform" | "both"
    minimized: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.kind == "pass"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "size": self.size,
            "seed": self.seed,
            "kind": self.kind,
            "schedule": self.schedule,
            "error": self.error,
            "stage": self.stage,
            "mismatch_arrays": self.mismatch_arrays,
            "oracle": self.oracle,
            "minimized": self.minimized,
        }


#: ``(kind, mismatch_arrays, oracle, stage, error)``
_Verdict = Tuple[str, List[str], Optional[str], Optional[str], Optional[str]]


def _differential(workload: str, size: int, seed: int, schedule: Dict[str, Any]) -> _Verdict:
    """:func:`_compare` on a fresh build with the serialized schedule applied."""
    try:
        built = build_workload(workload, size)
        _scheduled_stage(built, schedule)
    except Exception as exc:
        return "crash", [], None, "build", _crash_detail(exc)
    return _compare(built, seed)


def _crash_detail(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=6)}"


def _compare(built, seed: int) -> _Verdict:
    """Run a scheduled workload differentially.

    The comparison runs the whole workload both ways -- for a dataflow
    design, every stage in topological order -- over every array, from
    one seeded fill: the simulation's inputs are a copy of the
    reference's, taken before it runs.
    """
    from repro.affine import compile as _compile

    stage = "reference"
    try:
        reference = built.allocate_arrays(seed=seed)
        simulated = {name: array.copy() for name, array in reference.items()}
        built.reference_execute(reference)
        stage = "simulate"
        built.simulate(simulated)
    except Exception as exc:
        return "crash", [], None, stage, _crash_detail(exc)

    mismatched = sorted(
        name
        for name in reference
        if not np.array_equal(reference[name], simulated[name])
    )
    if not mismatched:
        return "pass", [], None, None, None

    # Attribution: replay the simulation with interpreter-backed kernels
    # (reference mode).  Agreement with the DSL reference means the
    # compiled simulator broke; agreement with the compiled run means
    # the transformation/lowering pipeline broke.
    oracle = "both"
    was_reference = _compile.set_reference_mode(True)
    try:
        interpreted = built.allocate_arrays(seed=seed)
        built.simulate(interpreted)
        sim_bug = any(
            not np.array_equal(interpreted[name], simulated[name])
            for name in mismatched
        )
        transform_bug = any(
            not np.array_equal(interpreted[name], reference[name])
            for name in mismatched
        )
        if sim_bug and not transform_bug:
            oracle = "sim"
        elif transform_bug and not sim_bug:
            oracle = "transform"
    except Exception:  # attribution is best-effort
        oracle = "both"
    finally:
        _compile.set_reference_mode(was_reference)
    return "mismatch", mismatched, oracle, None, None


def check_schedule(workload: str, size: int, seed: int, schedule: Dict[str, Any]) -> bool:
    """True when the serialized schedule passes the differential check."""
    kind, _, _, _, _ = _differential(workload, size, seed, schedule)
    return kind == "pass"


def draw_schedule(
    workload: str, size: int, seed: int, max_directives: int = 6
) -> Tuple[Any, Dict[str, Any]]:
    """``workload`` built and randomly, legally scheduled, with its schedule
    dict (a dataflow design's names the stage it targets under ``"stage"``)."""
    from repro.dataflow import DataflowDesign
    from repro.fuzz.generator import random_schedule

    rng = random.Random(seed)
    built = build_workload(workload, size)
    stage_name = None
    # Only a dataflow design has stages for a schedule to target.
    if isinstance(built, DataflowDesign):
        stage_name = rng.choice(sorted(built.stages))
    function = _schedule_target(built, stage_name)
    random_schedule(function, rng, max_directives=max_directives)
    schedule = schedule_to_dict(function)
    if stage_name is not None:
        schedule["stage"] = stage_name
    return built, schedule


def run_trial(
    workload: str, size: int, seed: int, max_directives: int = 6
) -> TrialResult:
    """Generate one random legal schedule for ``workload`` and check it.

    Fully deterministic in ``(workload, size, seed, max_directives)``.
    The differential runs on the workload the schedule was drawn on;
    replaying the schedule dict on a fresh build gives the same one.
    """
    from repro import trace as _trace

    with _trace.span("fuzz.trial", category="fuzz",
                     args={"workload": workload, "size": size, "seed": seed}):
        try:
            built, schedule = draw_schedule(workload, size, seed, max_directives)
        except Exception as exc:
            return TrialResult(workload, size, seed, "crash", stage="generate",
                               error=_crash_detail(exc))
        kind, mismatched, oracle, stage, error = _compare(built, seed)
        return TrialResult(
            workload, size, seed, kind,
            schedule=schedule, error=error, stage=stage,
            mismatch_arrays=mismatched, oracle=oracle,
        )


# -- shrinking ----------------------------------------------------------------


def _still_fails(workload: str, size: int, seed: int, schedule: Dict[str, Any]) -> bool:
    """The shrink predicate: preflight-clean AND still failing."""
    try:
        target = _scheduled_stage(build_workload(workload, size), schedule)
    except Exception:  # e.g. a dataflow schedule that lost its "stage" key
        return False
    try:
        if preflight_schedule(target).errors():
            return False
    except EliminationBlowup:  # unanalyzable reduction: reject, as the generator does
        return False
    kind, _, _, _, _ = _differential(workload, size, seed, schedule)
    return kind != "pass"


def shrink_failure(result: TrialResult) -> Dict[str, Any]:
    """Greedily minimize a failing trial's schedule.

    Removes one directive or partition at a time, keeping a removal only
    when the reduced schedule is still accepted by preflight and still
    fails the differential check.  Bounded by :data:`SHRINK_BUDGET`
    re-executions; returns the smallest failing schedule found.
    """
    from repro import trace as _trace

    current = {
        "directives": list(result.schedule.get("directives", [])),
        "partitions": dict(result.schedule.get("partitions", {})),
    }
    if "stage" in result.schedule:  # dataflow: which stage the schedule targets
        current["stage"] = result.schedule["stage"]
    spent = 0
    with _trace.span("fuzz.shrink", category="fuzz",
                     args={"workload": result.workload, "seed": result.seed}):
        progress = True
        while progress and spent < SHRINK_BUDGET:
            progress = False
            for index in range(len(current["directives"]) - 1, -1, -1):
                if spent >= SHRINK_BUDGET:
                    break
                candidate = {
                    **current,
                    "directives": current["directives"][:index]
                    + current["directives"][index + 1:],
                    "partitions": dict(current["partitions"]),
                }
                spent += 1
                if _still_fails(result.workload, result.size, result.seed, candidate):
                    current = candidate
                    progress = True
            for name in sorted(current["partitions"]):
                if spent >= SHRINK_BUDGET:
                    break
                candidate = {
                    **current,
                    "directives": list(current["directives"]),
                    "partitions": {
                        k: v for k, v in current["partitions"].items() if k != name
                    },
                }
                spent += 1
                if _still_fails(result.workload, result.size, result.seed, candidate):
                    current = candidate
                    progress = True
    return current


# -- repro scripts ------------------------------------------------------------

_REPRO_TEMPLATE = '''#!/usr/bin/env python
"""Minimized fuzz reproducer (FUZ003), generated by `repro fuzz`.

Runs the recorded schedule differentially (DSL reference vs compiled
simulation) and exits 1 while the discrepancy reproduces, 0 once fixed.
"""
import json
import sys

from repro.fuzz.harness import replay

PAYLOAD = json.loads({payload})

if __name__ == "__main__":
    sys.exit(replay(PAYLOAD))
'''


def replay(payload: Dict[str, Any]) -> int:
    """Re-run a serialized failure; returns a process exit code.

    ``payload`` needs ``workload``, ``size``, ``seed``, ``schedule``.
    Prints a verdict; exit code 1 while the bug reproduces, 0 when the
    differential check passes, 2 when the replay itself is invalid.
    """
    workload = payload["workload"]
    size = int(payload["size"])
    seed = int(payload["seed"])
    schedule = payload["schedule"]
    try:
        kind, mismatched, oracle, stage, error = _differential(
            workload, size, seed, schedule
        )
    except Exception as exc:  # pragma: no cover - defensive
        print(f"replay invalid: {type(exc).__name__}: {exc}")
        return 2
    if kind == "pass":
        print(f"{workload}[{size}] seed={seed}: differential check passes (fixed)")
        return 0
    if kind == "crash":
        print(f"{workload}[{size}] seed={seed}: crash at stage {stage}: {error}")
        return 1
    print(
        f"{workload}[{size}] seed={seed}: MISMATCH on {', '.join(mismatched)} "
        f"(suspect: {oracle})"
    )
    return 1


def write_repro_script(result: TrialResult, path: str) -> str:
    """Write a standalone repro script for a failing trial."""
    payload = {
        "workload": result.workload,
        "size": result.size,
        "seed": result.seed,
        "schedule": result.minimized
        if result.minimized is not None
        else result.schedule,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    atomic_write(path, _REPRO_TEMPLATE.format(payload=repr(text)))
    return path
