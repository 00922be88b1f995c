"""Fuzz campaign driver: seeding, scheduling, budgets.

A campaign runs ``trials`` differential trials round-robin over the
``workloads x sizes`` grid, in process and in trial order.  Per-trial
seeds are drawn once, up front, from a master :class:`random.Random`,
so a campaign is deterministic in ``--seed`` and any one trial replays
alone.  A wall clock ``--time-budget`` is enforced cooperatively
between trials via :class:`~repro.util.deadline.Deadline`; exhausting
it is a normal stop (``FUZ004``), not a failure.

Failing trials are shrunk to minimal reproducers in the driver process
and written as runnable scripts (``FUZ003``) under ``--out``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import trace as _trace
from repro.diagnostics import DiagnosticEngine
from repro.fuzz.harness import (
    TrialResult,
    run_trial,
    shrink_failure,
    write_repro_script,
)
from repro.util.atomic import atomic_write
from repro.util.deadline import Deadline

#: Cheap-to-interpret workloads covering every non-DNN family.
DEFAULT_WORKLOADS = (
    "gemm",
    "bicg",
    "gesummv",
    "atax",
    "mvt",
    "conv2d",
    "jacobi-1d",
    "jacobi-2d",
    "seidel",
    "edgedetect",
    "blur",
    "image-pipeline",
    "conv-block",
)
DEFAULT_SIZES = (8, 12)


@dataclass
class FuzzOptions:
    """Everything a fuzz campaign needs (the ``repro fuzz`` flag set)."""

    seed: int = 0
    trials: int = 200
    workloads: Sequence[str] = DEFAULT_WORKLOADS
    sizes: Sequence[int] = DEFAULT_SIZES
    max_directives: int = 6
    time_budget_s: Optional[float] = None
    out_dir: Optional[str] = None

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_directives < 1:
            raise ValueError(
                f"max-directives must be >= 1, got {self.max_directives}"
            )
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError(
                f"time budget must be positive, got {self.time_budget_s}"
            )
        if not self.workloads:
            raise ValueError("need at least one workload")
        if not self.sizes:
            raise ValueError("need at least one size")
        from repro.fuzz.harness import workload_factory

        for name in self.workloads:
            workload_factory(name)  # raises KeyError on unknown names


@dataclass
class CampaignResult:
    """Merged outcome of one campaign, in trial order."""

    options: FuzzOptions
    results: List[TrialResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False
    engine: Optional[DiagnosticEngine] = None

    @property
    def trials_run(self) -> int:
        return len(self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.kind == "pass")

    @property
    def mismatches(self) -> List[TrialResult]:
        return [r for r in self.results if r.kind == "mismatch"]

    @property
    def crashes(self) -> List[TrialResult]:
        return [r for r in self.results if r.kind == "crash"]

    @property
    def failures(self) -> List[TrialResult]:
        return [r for r in self.results if r.kind != "pass"]

    def summary_dict(self) -> dict:
        return {
            "seed": self.options.seed,
            "trials_requested": self.options.trials,
            "trials_run": self.trials_run,
            "passed": self.passed,
            "mismatches": len(self.mismatches),
            "crashes": len(self.crashes),
            "budget_exhausted": self.budget_exhausted,
            "elapsed_s": round(self.elapsed_s, 3),
            "workloads": list(self.options.workloads),
            "sizes": list(self.options.sizes),
            "repro_scripts": list(self.repro_paths),
            "failures": [r.as_dict() for r in self.failures],
        }


def plan_trials(options: FuzzOptions) -> List[Tuple[str, int, int, int]]:
    """The deterministic trial list: (workload, size, seed, max_directives).

    Seeds come from one master RNG draw per trial, so replaying a single
    trial needs only its ``(workload, size, seed)`` triple -- exactly
    what the repro scripts embed.
    """
    master = random.Random(options.seed)
    grid = [(w, s) for s in options.sizes for w in options.workloads]
    return [
        (*grid[index % len(grid)], master.randrange(2**32), options.max_directives)
        for index in range(options.trials)
    ]


def run_campaign(
    options: FuzzOptions, engine: Optional[DiagnosticEngine] = None
) -> CampaignResult:
    """Run a fuzz campaign; returns its results in trial order."""
    options.validate()
    if engine is None:
        engine = DiagnosticEngine()
    campaign = CampaignResult(options=options, engine=engine)
    deadline = Deadline(options.time_budget_s) if options.time_budget_s else None
    plan = plan_trials(options)
    started = time.monotonic()

    with _trace.span(
        "fuzz.campaign",
        category="fuzz",
        args={"seed": options.seed, "trials": options.trials},
    ):
        for workload, size, seed, max_directives in plan:
            if deadline is not None and deadline.remaining() <= 0:
                campaign.budget_exhausted = True
                break
            campaign.results.append(
                run_trial(workload, size, seed, max_directives=max_directives)
            )
            _trace.count("fuzz.trials")

        campaign.elapsed_s = time.monotonic() - started
        if campaign.budget_exhausted:
            engine.warning(
                "FUZ004",
                f"time budget {options.time_budget_s:.0f}s exhausted after "
                f"{campaign.trials_run}/{options.trials} trials",
            )

        _report_failures(campaign, engine)
    return campaign


def _report_failures(campaign: CampaignResult, engine: DiagnosticEngine) -> None:
    """Shrink failures, emit diagnostics, write repro scripts + summary."""
    options = campaign.options
    out_dir = options.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for result in campaign.failures:
        if result.kind == "mismatch":
            engine.error(
                "FUZ001",
                f"differential mismatch: {result.workload}[{result.size}] "
                f"seed={result.seed} arrays={','.join(result.mismatch_arrays)} "
                f"suspect={result.oracle}",
            )
        else:
            engine.error(
                "FUZ002",
                f"fuzz trial crashed: {result.workload}[{result.size}] "
                f"seed={result.seed} stage={result.stage}: "
                f"{(result.error or '').splitlines()[0] if result.error else 'unknown'}",
            )
        if result.schedule:
            result.minimized = shrink_failure(result)
        if out_dir:
            path = os.path.join(
                out_dir,
                f"repro-{result.workload}-{result.size}-seed{result.seed}.py",
            )
            write_repro_script(result, path)
            campaign.repro_paths.append(path)
            engine.note("FUZ003", f"minimized reproducer written to {path}")
    if out_dir:
        summary_path = os.path.join(out_dir, "summary.json")
        atomic_write(
            summary_path, json.dumps(campaign.summary_dict(), indent=2) + "\n"
        )
