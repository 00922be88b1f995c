"""Joint DSE over dataflow pipelines with throughput balancing.

A dataflow design's throughput is set by its slowest stage, so naively
giving every stage an equal slice of the device and letting each
optimize alone overspends on fast stages and starves the bottleneck.
:func:`auto_dse_dataflow` searches jointly instead:

1. **Per-stage frontiers.** Each stage runs the standard two-stage
   sweep (:func:`repro.dse.engine.sweep`, :func:`~repro.dse.engine.auto_dse`
   without its install) with a full Pareto objective, producing its
   latency-vs-resource frontier (checkpoint / resume inherited; a design
   checkpoint fans out to one journal per stage at ``<path>.<stage>``).
2. **Throughput balancing.** A greedy walk starts every stage at its
   cheapest frontier point, then repeatedly upgrades only the current
   *bottleneck* stage to its next-faster point, admitting the step only
   if the aggregate design (stages + FIFOs) still fits the budget.
   Resources flow to where the interval is, nowhere else.
3. **Composed frontier.** Every selection the walk visits (plus the
   naive composition and FIFO-depth variants of the balanced design)
   becomes a composed :class:`~repro.dse.pareto.ParetoPoint` -- stage
   point keys joined, parallelism entries prefixed ``stage.node`` --
   kept when it fits the budget and pruned by the standard dominance
   machinery, so serve payloads and reports reuse the PR-9 frontier
   plumbing unchanged.
4. **Realization.** Each stage's selected ``(parallelism, bank_cap)``
   is lowered, verified and installed by the evaluator of the sweep
   that scored it, so the installed stage is the point the balancer
   checked against the budget; ``design.codegen()`` afterwards emits
   the optimized accelerator and the returned report comes from real
   estimation, not frontier arithmetic.  Realization is no evaluation.
"""

from __future__ import annotations

import os
import textwrap
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.affine.ir import FuncOp
from repro.affine.passes.verify import verify_func
from repro.dataflow.codegen import generate_dataflow_hls_c
from repro.dataflow.design import DataflowDesign
from repro.dataflow.estimate import (
    DataflowReport,
    compose_report,
    resolve_depths,
)
from repro.diagnostics import Diagnostic
from repro.dse.engine import DseResult, over_budget, sweep
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions
from repro.dse.pareto import Objective, ParetoFrontier, ParetoPoint
from repro.dse.stats import DseStats
from repro.hls.device import FPGADevice
from repro.hls.report import Resources, SynthesisReport

#: The per-stage sweeps always run a full-axis Pareto objective; the
#: design-level objective only shapes the *composed* frontier.
STAGE_OBJECTIVE = "pareto:latency,dsp,bram,lut,ff"

#: Uniform FIFO-depth multipliers explored on the balanced selection
#: (deeper FIFOs trade BRAM for stall-free intervals).
DEPTH_FACTORS = (1, 2, 4)


@dataclass
class DataflowDseResult:
    """The outcome of joint dataflow design space exploration."""

    design: DataflowDesign
    report: DataflowReport
    naive_report: DataflowReport
    stage_results: Dict[str, DseResult]
    #: Each stage's selected point, lowered and structurally verified:
    #: what :meth:`codegen` emits (the point installed on its function).
    stage_func_ops: Dict[str, FuncOp]
    selection: Dict[str, ParetoPoint]
    naive_selection: Dict[str, ParetoPoint]
    frontier: List[ParetoPoint]
    objective: str
    dse_time_s: float
    evaluations: int
    #: The stage sweeps' stats merged (totals are their sum; the
    #: interrupted / time-budget flags hold if any stage's did).
    stats: DseStats
    quarantine: list = field(default_factory=list)
    #: Every stage sweep's diagnostics, in stage order, then the
    #: design's own ``DSE009`` when it does not fit the budget.
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Whether the realized design (stages + FIFOs) fits the budget.
    feasible: bool = True

    # Same conditions as a single kernel's, over the merged stats, the
    # stages' pooled quarantine and the design's own fit.
    degraded = DseResult.degraded

    def codegen(self) -> str:
        """The dataflow HLS C of the design, emitted from ``stage_func_ops``."""
        return generate_dataflow_hls_c(self.design, func_ops=self.stage_func_ops)

    @property
    def balanced_speedup(self) -> float:
        """Throughput gain of balancing over the naive composition."""
        return self.naive_report.total_cycles / max(1, self.report.total_cycles)

    def summary(self, workload: str) -> str:
        """The head of a ``repro dse`` report: the balanced design."""
        bottleneck = self.report.bottleneck()
        lines = [
            f"dataflow auto-DSE of {workload}: {self.evaluations} "
            f"evaluations in {self.dse_time_s:.3f}s",
            f"interval {self.report.interval_cycles} cycles "
            f"(bottleneck stage: {bottleneck}, "
            f"{self.report.stage_reports[bottleneck].total_cycles} cycles); "
            f"naive even-split interval {self.naive_report.interval_cycles} "
            f"cycles; balanced speedup {self.balanced_speedup:.2f}x",
        ]
        for stage in self.design.topo_order():
            point = self.selection[stage.name]
            lines.append(
                f"  stage {stage.name}: {point.cycles} cycles, "
                f"dsp={point.dsp} lut={point.lut}"
            )
        return "\n".join(lines)

    def stats_summary(self) -> str:
        """One ``--stats`` profile per stage sweep, then their sum."""
        blocks = [
            f"stage {name}:\n" + textwrap.indent(stage.stats.summary(), "  ")
            for name, stage in self.stage_results.items()
        ]
        blocks.append(
            "merged (totals are the sum of the stages above):\n"
            + textwrap.indent(self.stats.summary(), "  ")
        )
        return "\n\n".join(blocks)

    def payload(self) -> dict:
        """A JSON-safe summary (serve result-store / CLI --json form)."""
        return {
            "design": self.design.name,
            "objective": self.objective,
            "interval_cycles": self.report.total_cycles,
            "latency_cycles": self.report.latency_cycles,
            "naive_interval_cycles": self.naive_report.total_cycles,
            "balanced_speedup": self.balanced_speedup,
            "bottleneck": self.report.bottleneck(),
            "stages": {
                name: {
                    "cycles": point.cycles,
                    "parallelism": dict(point.parallelism),
                    "bank_cap": point.bank_cap,
                }
                for name, point in sorted(self.selection.items())
            },
            "fifos": [
                {
                    "array": fifo.array,
                    "depth": fifo.depth,
                    "min_depth": fifo.min_depth,
                    "width_bits": fifo.width_bits,
                }
                for fifo in self.report.fifos
            ],
            "resources": asdict(self.report.resources),
            "power_w": self.report.power_w,
            "frontier": [point.to_record() for point in self.frontier],
            "evaluations": self.evaluations,
        }


def auto_dse_dataflow(
    design: DataflowDesign,
    options: Optional[DseOptions] = None,
) -> DataflowDseResult:
    """Joint DSE: per-stage sweeps, balancing walk, composed frontier.

    The same :class:`~repro.dse.options.DseOptions` surface as the
    single-kernel engine; ``objective`` shapes the composed frontier
    ("single" keeps the balanced-best behavior with a latency,dsp
    frontier attached for reporting), and ``time_budget_s`` bounds the
    whole design: each stage sweep gets what is left of it.  On return
    the balanced schedule is installed on every stage function.
    """
    options = (options or DseOptions()).validate()
    start = time.perf_counter()
    device = options.resolved_device()
    clock_ns = options.resolved_clock_ns()
    budget = device.scaled(options.resource_fraction)
    objective = options.parsed_objective()
    composed_axes = (
        objective if objective.wants_frontier
        else Objective(mode="pareto", axes=("latency", "dsp"))
    )

    # 1. Per-stage frontiers.
    stage_results: Dict[str, DseResult] = {}
    evaluators: Dict[str, Evaluator] = {}
    frontiers: Dict[str, List[ParetoPoint]] = {}
    order = [stage.name for stage in design.topo_order()]
    for name in order:
        stage_checkpoint = (
            f"{options.checkpoint}.{name}"
            if options.checkpoint is not None
            else None
        )
        # One design-wide budget: a stage gets what the ones before it left.
        time_budget_s = options.time_budget_s
        if time_budget_s is not None:
            time_budget_s = max(0.0, time_budget_s - (time.perf_counter() - start))
        stage_options = options.replace(
            objective=STAGE_OBJECTIVE,
            checkpoint=stage_checkpoint,
            time_budget_s=time_budget_s,
            # A design checkpoint fans out per stage; resuming only
            # replays stages whose journal actually exists (a crash
            # mid-pipeline leaves later stages journal-less).
            resume=(
                options.resume
                and stage_checkpoint is not None
                and os.path.exists(stage_checkpoint)
            ),
        )
        result, evaluators[name] = sweep(design.stages[name].function, stage_options)
        stage_results[name] = result
        points = list(result.frontier or ())
        if not points:
            # Defensive: a degenerate sweep still yields its best design.
            from repro.dse.pareto import parse_objective

            points = [
                ParetoPoint.from_report(
                    "best", {}, 128,
                    parse_objective(STAGE_OBJECTIVE), result.report,
                )
            ]
        frontiers[name] = sorted(points, key=lambda p: (-p.cycles, p.key))

    # 2. FIFO floor cost (min depths; depth variants come later).
    base_fifos = resolve_depths(design)
    fifo_resources = Resources()
    for fifo in base_fifos:
        fifo_resources = fifo_resources + fifo.resources()

    # 3. Naive composition: an even budget split, each stage alone.
    naive_selection = {
        name: _naive_pick(frontiers[name], budget, len(order))
        for name in order
    }

    # 4. Balancing walk.
    selection = {name: frontiers[name][0] for name in order}  # cheapest
    if not _fits(selection, fifo_resources, budget):
        # Even the floor exceeds the budget: fall back to the naive
        # per-stage picks so the result is still well-defined.
        selection = dict(naive_selection)
    visited: List[Dict[str, ParetoPoint]] = [dict(selection)]
    while True:
        bottleneck = max(
            order, key=lambda name: (selection[name].cycles, name)
        )
        upgrade = _next_faster(
            frontiers[bottleneck], selection[bottleneck], selection,
            bottleneck, fifo_resources, budget,
        )
        if upgrade is None:
            break
        selection[bottleneck] = upgrade
        visited.append(dict(selection))

    # 5. Composed frontier: walk trajectory + naive + depth variants,
    #    each published only when it fits the budget.
    frontier = ParetoFrontier()
    trials = [(trial, 1) for trial in visited + [naive_selection]]
    trials += [(selection, factor) for factor in DEPTH_FACTORS[1:]]
    for trial, factor in trials:
        point = _compose_point(design, device, clock_ns, trial, factor, composed_axes)
        if budget.admits(point):
            frontier.insert(point)

    # 6. Realize the balanced selection on the live stage functions.
    realized: Dict[str, SynthesisReport] = {}
    func_ops: Dict[str, FuncOp] = {}
    for name in order:
        evaluator, point = evaluators[name], selection[name]
        configs = evaluator.configs(dict(point.parallelism))
        realized[name], func_ops[name] = evaluator.realize(configs, point.bank_cap)
        verify_func(func_ops[name]).raise_if_errors()
        evaluator.install(configs, point.bank_cap)
    report = compose_report(design, device, clock_ns, realized, base_fifos)
    naive_report = compose_report(
        design, device, clock_ns,
        {
            name: _synthetic_report(name, device, clock_ns, point)
            for name, point in naive_selection.items()
        },
        base_fifos,
    )

    quarantine: list = []
    diagnostics: List[Diagnostic] = []
    for result in stage_results.values():
        quarantine.extend(result.quarantine)
        # A stage over the budget puts the design over it: one DSE009.
        diagnostics.extend(d for d in result.diagnostics if d.code != "DSE009")
    feasible = budget.admits(report.resources)
    if not feasible:
        diagnostics.append(over_budget(report, budget))
    return DataflowDseResult(
        design=design,
        report=report,
        naive_report=naive_report,
        stage_results=stage_results,
        stage_func_ops=func_ops,
        selection=dict(selection),
        naive_selection=dict(naive_selection),
        frontier=frontier.points(),
        objective=objective.canonical,
        dse_time_s=time.perf_counter() - start,
        evaluations=sum(r.evaluations for r in stage_results.values()),
        stats=DseStats.merge([r.stats for r in stage_results.values()]),
        quarantine=quarantine,
        diagnostics=diagnostics,
        feasible=feasible,
    )


def _point_resources(point: ParetoPoint) -> Resources:
    return Resources(
        dsp=point.dsp, lut=point.lut, ff=point.ff, bram_bits=point.bram_bits
    )


def _fits(
    selection: Dict[str, ParetoPoint],
    fifo_resources: Resources,
    budget: FPGADevice,
) -> bool:
    total = sum(map(_point_resources, selection.values()), fifo_resources)
    return budget.admits(total)


def _naive_pick(
    points: List[ParetoPoint], budget: FPGADevice, num_stages: int
) -> ParetoPoint:
    """Min-cycles point within an even 1/num_stages budget split."""
    # ``x * n <= b`` holds exactly when ``x <= b // n``.
    fitting = [
        p for p in points if budget.admits(_point_resources(p).scaled(num_stages))
    ]
    pool = fitting if fitting else points
    return min(pool, key=lambda p: (p.cycles, p.key))


def _next_faster(
    points: List[ParetoPoint],
    current: ParetoPoint,
    selection: Dict[str, ParetoPoint],
    stage: str,
    fifo_resources: Resources,
    budget: FPGADevice,
) -> Optional[ParetoPoint]:
    """The slowest strictly-faster point that keeps the design feasible.

    Smallest steps first: the walk then visits every intermediate
    balanced configuration, each of which lands on the composed
    frontier as a latency-resource tradeoff.
    """
    faster = sorted(
        (p for p in points if p.cycles < current.cycles),
        key=lambda p: (-p.cycles, p.key),
    )
    for candidate in faster:
        trial = dict(selection)
        trial[stage] = candidate
        if _fits(trial, fifo_resources, budget):
            return candidate
    return None


def _compose_point(
    design: DataflowDesign,
    device: FPGADevice,
    clock_ns: float,
    selection: Dict[str, ParetoPoint],
    depth_factor: int,
    objective: Objective,
) -> ParetoPoint:
    """One composed frontier point from per-stage point scalars.

    No re-estimation: the composed report is assembled from the stage
    points' recorded scalars, exactly as :func:`compose_report` would
    from real reports with the same numbers.
    """
    depths = None
    if depth_factor != 1:
        depths = {
            fifo.array: fifo.min_depth * depth_factor
            for fifo in resolve_depths(design)
        }
    fifos = resolve_depths(design, depths)
    stage_reports = {
        name: _synthetic_report(name, device, clock_ns, point)
        for name, point in selection.items()
    }
    report = compose_report(design, device, clock_ns, stage_reports, fifos)
    key = "+".join(
        f"{name}:{selection[name].key}" for name in sorted(selection)
    ) + f"@d{depth_factor}"
    parallelism = {
        f"{stage}.{node}": degree
        for stage, point in selection.items()
        for node, degree in point.parallelism
    }
    bank_cap = max((p.bank_cap for p in selection.values()), default=128)
    return ParetoPoint.from_report(key, parallelism, bank_cap, objective, report)


def _synthetic_report(
    name: str, device: FPGADevice, clock_ns: float, point: ParetoPoint
) -> SynthesisReport:
    """A stage report reconstructed from frontier-point scalars."""
    return SynthesisReport(
        function_name=name,
        device=device,
        clock_ns=clock_ns,
        total_cycles=point.cycles,
        resources=_point_resources(point),
        power_w=point.power_w,
    )

