"""The DSE engine: stage 1 + stage 2 + bottleneck search (Section VI).

``auto_dse`` restructures the function's loops (stage 1), then walks the
parallelism ladder node by node: the bottleneck node on the critical
path of the dependence graph doubles its parallelism degree while the
virtual-HLS estimate stays within the resource constraints; a node whose
next step is infeasible (or maxed out) leaves the optimization list; the
search ends when the list is empty.  The winning schedule is installed
on the function.

This module is the *search*: which candidates to visit, in what order,
and what to do when one fails (quarantine, journal, budgets).  How one
candidate is scored -- and every memo layer that makes scoring cheap --
lives in :class:`repro.dse.evaluator.Evaluator`, which dataflow
realization shares.

``cache=False`` disables every memo layer -- the isl tables too: the
sweep and its evaluator run under a
:class:`~repro.session.SessionContext` whose memo context is disabled
-- so measured speedups compare genuinely uncached runs; cached and
uncached searches visit identical design points and return
bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import trace as _trace
from repro.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
    SourceLocation,
)
from repro.util.deadline import Deadline
from repro.dsl.function import Function
from repro.dsl.schedule import Schedule
from repro.affine.ir import FuncOp
from repro.affine.passes.verify import verify_func
from repro.hls.device import FPGADevice
from repro.hls.report import SynthesisReport
from repro.isl import memo as _isl_memo
from repro.session import SessionContext
from repro.dse.checkpoint import (
    CheckpointJournal,
    candidate_key,
    make_header,
    workload_fingerprint,
)
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions
from repro.dse.pareto import (
    Objective,
    ParetoFrontier,
    ParetoPoint,
)
from repro.dse.stage1 import Stage1Plan
from repro.dse.stage2 import NodeConfig, Space
from repro.dse.stats import DseStats


@dataclass
class QuarantinedCandidate:
    """A design point whose evaluation failed; excluded from the search.

    The search keeps climbing with the remaining candidates instead of
    aborting; the failure survives as a structured diagnostic (not a
    traceback) so ``repro dse`` can report what was skipped and why.
    A ``bank_cap`` of 0 means the candidate failed while planning its
    node configurations, before a banking budget was chosen.
    """

    parallelism: Dict[str, int]
    bank_cap: int
    diagnostic: Diagnostic
    # Wall time lost before the watchdog fired, for DSE003 timeouts.
    elapsed_s: Optional[float] = None

    def __str__(self) -> str:
        return self.diagnostic.oneline()


@dataclass
class DseResult:
    """The outcome of automatic design space exploration."""

    function: Function
    report: SynthesisReport
    schedule: Schedule
    plan: Stage1Plan
    configs: Dict[str, NodeConfig]
    #: The bank cap the design's banking was derived under.
    bank_cap: int
    #: The design lowered to the affine dialect and structurally verified,
    #: as lowering ``function`` gives it once the design is installed.
    func_op: FuncOp
    dse_time_s: float
    evaluations: int
    stats: Optional[DseStats] = None
    quarantine: List[QuarantinedCandidate] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    journal_path: Optional[str] = None
    #: The canonical objective spec the sweep ran under ("single" keeps
    #: the classic best-latency behavior and leaves `frontier` None).
    objective: str = "single"
    #: The dominance-pruned Pareto frontier, in canonical order
    #: (objective vector, then candidate key), for "pareto"/"weighted"
    #: objectives; see :mod:`repro.dse.pareto`.
    frontier: Optional[List["ParetoPoint"]] = None
    #: Whether the returned design fits the resource budget (a ``DSE009``
    #: in ``diagnostics`` names the axes over it when it does not).
    feasible: bool = True

    @property
    def degraded(self) -> bool:
        """Whether the sweep completed in a weakened form.

        True when any candidate was quarantined (including watchdog
        timeouts), the wall-clock budget ran out, the sweep was
        interrupted -- the conditions under which the returned design is
        "best found" rather than "best reachable" -- or the returned
        design does not fit the budget.
        """
        if self.quarantine or not self.feasible:
            return True
        return bool(
            self.stats is not None
            and (self.stats.interrupted or self.stats.time_budget_hit)
        )

    def tile_vector(self, node: str) -> List[int]:
        """Paper-style achieved tile sizes for one node."""
        return self.configs[node].tile_vector(self.plan.orders[node])

    def tile_vectors(self) -> Dict[str, List[int]]:
        return {name: self.tile_vector(name) for name in self.configs}

    @property
    def parallelism(self) -> float:
        """Product of tile sizes divided by achieved II (paper metric).

        The product runs over *all* node configs: a multi-kernel design's
        parallelism is the product of its per-node tile products, not the
        largest node's (taking the max under-reported every design with
        more than one compute).
        """
        total = 1
        for config in self.configs.values():
            total *= config.total_parallelism
        ii = self.report.worst_ii() or 1
        return total / ii

    def codegen(self) -> str:
        """HLS C of the design, emitted from ``func_op``."""
        from repro.pipeline import emit_hls_c

        return emit_hls_c(self.func_op)

    def payload(self) -> dict:
        """The deterministic slice of the result (serve store / differential).

        Exactly the fields the resume-equivalence contract guarantees
        bit-identical across cached / resumed / fault-injected runs (the
        ``tests/resilience`` fingerprint plus the installed schedule);
        work counters like the evaluation count legitimately differ on a
        crash-resumed run and are left out.
        """
        return {
            "total_cycles": self.report.total_cycles,
            "resources": asdict(self.report.resources),
            "power_w": self.report.power_w,
            "tile_vectors": self.tile_vectors(),
            "schedule": [list(d.fingerprint()) for d in self.schedule],
            "objective": self.objective,
            # Frontier modes: the dominance-pruned Pareto set, already in
            # canonical order, lands in the content-addressed store with
            # the design (the serve-vs-batch differential compares it too).
            "frontier": (
                [point.to_record() for point in self.frontier]
                if self.frontier is not None
                else None
            ),
        }

    def summary(self, workload: str) -> str:
        """The head of a ``repro dse`` report: the sweep and its design."""
        lines = [
            f"auto-DSE of {workload}: {self.evaluations} evaluations in "
            f"{self.dse_time_s:.3f}s"
        ]
        if self.stats is not None and self.stats.replayed:
            lines.append(
                f"replayed {self.stats.replayed} candidate(s) from "
                f"checkpoint journal {self.journal_path}"
            )
        lines.append(f"tiles: {self.tile_vectors()}")
        return "\n".join(lines)

    def stats_summary(self) -> str:
        """The ``--stats`` profile of the sweep."""
        return self.stats.summary()


def auto_dse(
    function: Function,
    options: Optional[DseOptions] = None,
) -> DseResult:
    """Run the two-stage DSE and install the best design found.

    All configuration travels in one :class:`~repro.dse.options.DseOptions`::

        auto_dse(function, options=DseOptions(cache=False))

    ``options.cache=False`` disables all memoization layers (for
    measurement); the search trajectory and the result are identical
    either way.

    Crash safety (see ``docs/resilience.md``):

    * ``options.checkpoint`` journals every really-evaluated candidate
      to an append-only JSON-lines file; with ``resume=True`` an
      existing journal (validated against the workload, device, and
      engine version -- ``DSE005`` on mismatch) replays completed
      candidates and the sweep continues where it died.
    * ``options.candidate_timeout_s`` arms a cooperative watchdog around
      each candidate: overruns are quarantined as ``DSE003`` timeouts.
    * ``options.time_budget_s`` bounds the whole sweep; when it runs out
      the search degrades gracefully to the best design found
      (``DSE004``).
    * ``options.fault_plan`` is the sweep context's deterministic
      fault-injection plan (:mod:`repro.faults`; testing only).

    Observability: when a :mod:`repro.trace` tracer is active, the sweep
    records hierarchical spans (per candidate, per pipeline layer) and,
    once the design is installed, bulk-publishes its
    :class:`~repro.dse.stats.DseStats` counters as trace metrics.
    Tracing never changes the result.
    """
    result, evaluator = sweep(function, options)
    evaluator.install(result.configs, result.bank_cap)
    publish_stats_metrics(result.stats)
    return result


def sweep(
    function: Function,
    options: Optional[DseOptions] = None,
) -> Tuple[DseResult, Evaluator]:
    """:func:`auto_dse` without its install: the result and the evaluator
    that scored it, which can realize and install any point it scored
    (dataflow realization installs the balancer's pick, not the best)."""
    if options is None:
        options = DseOptions()
    elif not isinstance(options, DseOptions):
        raise TypeError(
            f"auto_dse() options must be a DseOptions, got {type(options).__name__}"
        )
    # Function-independent validation first, before anything (device
    # scaling) can fail with a less precise message or leave a side
    # effect behind.
    options.validate()
    objective = options.parsed_objective()
    start = time.perf_counter()
    device = options.resolved_device()
    clock_ns = options.resolved_clock_ns()
    cache = options.cache
    checkpoint = options.checkpoint
    fault_plan = options.fault_plan
    budget = device.scaled(options.resource_fraction)

    stats = DseStats(cache_enabled=cache)
    engine = DiagnosticEngine()
    quarantine: List[QuarantinedCandidate] = []

    # Every option is validated *before* a checkpoint journal file is
    # created: an early raise must never leave a created-but-unusable
    # journal open or half-written on disk.
    if options.resume and checkpoint is None:
        raise DiagnosticError(
            "resume requested without a checkpoint journal path",
            code="DSE005",
            location=SourceLocation(function=function.name),
        )
    if (
        fault_plan is not None
        and fault_plan.plans("hang")
        and options.candidate_timeout_s is None
    ):
        # A hang with no watchdog would never return in a real sweep;
        # refuse the misconfigured harness up front instead of letting
        # the quarantine machinery mask it mid-sweep.
        raise ValueError(
            "fault plan schedules a hang but no candidate_timeout_s is "
            "set; the injected stall would have no active deadline"
        )
    sweep_deadline = (
        Deadline(options.time_budget_s)
        if options.time_budget_s is not None
        else None
    )

    journal = _open_journal(function, options, device, clock_ns, engine)

    # The sweep's context: an uncached sweep memoizes into no isl table,
    # and the fault plan is the sweep's own (None installs none).
    context = replace(SessionContext.current(), fault_plan=fault_plan)
    if not cache:
        context.memo = _isl_memo.MemoContext(enabled=False)
    isl_before = context.memo.stats_snapshot()

    span_args = None
    if _trace.enabled():
        span_args = {
            "function": function.name,
            "fingerprint": workload_fingerprint(function),
            "cache": cache,
        }
    try:
        with context.activate(), _trace.span("dse.auto_dse", "dse", span_args):
            evaluator = Evaluator(
                function, device=device, clock_ns=clock_ns,
                candidate_timeout_s=options.candidate_timeout_s,
                cache=cache, sweep_deadline=sweep_deadline,
                stats=stats, diagnostics=engine, context=context,
            )
            result = _search(
                _Sweep(
                    evaluator, budget, objective,
                    evaluator.space(options.max_parallelism),
                    engine, quarantine, journal=journal,
                )
            )
    finally:
        if journal is not None:
            journal.close()

    stats.finish_isl(isl_before, context.memo.stats_snapshot())
    stats.report_hits = evaluator.estimator.nest_hits
    stats.report_misses = evaluator.estimator.nest_misses
    stats.total_s = time.perf_counter() - start

    best, schedule, frontier = result
    report = best.report
    feasible = budget.admits(report.resources)
    if not feasible:
        engine.emit(over_budget(report, budget))
    return DseResult(
        function=function,
        report=report,
        schedule=schedule,
        plan=evaluator.plan,
        configs=best.configs,
        bank_cap=best.bank_cap,
        func_op=best.func_op,
        dse_time_s=stats.total_s,
        evaluations=stats.evaluations,
        stats=stats,
        quarantine=quarantine,
        diagnostics=list(engine.diagnostics),
        journal_path=checkpoint,
        objective=objective.canonical,
        frontier=frontier,
        feasible=feasible,
    ), evaluator


def over_budget(report, budget: FPGADevice) -> Diagnostic:
    """``DSE009`` for a returned design over ``budget``, axis by axis."""
    used = report.resources
    axes = ", ".join(
        f"{axis} {getattr(used, axis)} > {getattr(budget, axis)}"
        for axis in budget.overruns(used)
    )
    message = f"returned design exceeds the {budget.name} budget: {axes}"
    location = SourceLocation(function=report.function_name)
    return Diagnostic(Severity.WARNING, "DSE009", message, location=location)


def _open_journal(
    function: Function,
    options: DseOptions,
    device: FPGADevice,
    clock_ns: float,
    engine: DiagnosticEngine,
) -> Optional[CheckpointJournal]:
    """Create (or, with ``resume``, validate and reopen) the checkpoint journal."""
    if options.checkpoint is None:
        return None
    header = make_header(
        function, device, options.resource_fraction, clock_ns, options.max_parallelism
    )
    if options.resume:
        return CheckpointJournal.resume(
            options.checkpoint, header, engine=engine, fault_plan=options.fault_plan
        )
    return CheckpointJournal.create(
        options.checkpoint, header, fault_plan=options.fault_plan
    )


# DseStats counters published as trace metrics once a traced sweep's
# design is installed (a dataflow design's: realized), with their metric
# names.  Bulk-loading from the authoritative stats (instead of counting
# twice in the hot loops) keeps the metrics consistent with `--stats`.
_STATS_METRICS = (
    ("evaluations", "dse.evaluations"),
    ("candidates", "dse.candidates"),
    ("lowerings", "dse.lowerings"),
    ("group_lowerings", "dse.group_lowerings"),
    ("estimations", "dse.estimations"),
    ("quarantined", "dse.quarantined"),
    ("estimator_retries", "dse.estimator_retries"),
    ("replayed", "dse.replayed"),
    ("timeouts", "dse.timeouts"),
    ("lowering_cache_hits", "dse.cache.nest_lowering.hits"),
    ("lowering_cache_misses", "dse.cache.nest_lowering.misses"),
    ("report_hits", "dse.cache.report.hits"),
    ("report_misses", "dse.cache.report.misses"),
    ("config_cache_hits", "dse.cache.config.hits"),
    ("config_cache_misses", "dse.cache.config.misses"),
    ("statement_cache_hits", "dse.cache.statement.hits"),
    ("statement_cache_misses", "dse.cache.statement.misses"),
    ("pareto_candidates", "dse.pareto.candidates"),
    ("pareto_evaluated", "dse.pareto.evaluated"),
    ("surrogate_skips", "dse.pareto.surrogate_skips"),
    ("frontier_size", "dse.pareto.frontier_size"),
)


def publish_stats_metrics(stats: DseStats) -> None:
    """Mirror one sweep's :class:`DseStats` into the active tracer's
    metrics (none when tracing is off)."""
    tracer = _trace.active()
    if tracer is None:
        return
    metrics = tracer.metrics
    for attr, name in _STATS_METRICS:
        value = getattr(stats, attr)
        if value:
            metrics.count(name, value)
    for table, (hits, misses) in sorted(stats.isl_counters.items()):
        if hits:
            metrics.count(f"isl.memo.{table}.hits", hits)
        if misses:
            metrics.count(f"isl.memo.{table}.misses", misses)
    if stats.retry_backoff_s:
        metrics.observe("dse.retry_backoff_s", stats.retry_backoff_s)
    if stats.timeout_s:
        metrics.observe("dse.timeout_s", stats.timeout_s)


@dataclass
class _Best:
    """The design the ladder currently stands on."""

    report: SynthesisReport
    configs: Dict[str, NodeConfig]
    parallelism: Dict[str, int]
    bank_cap: int
    #: None when the score was replayed from a journal: no lowering
    #: happened in this process yet.
    func_op: Optional[FuncOp] = None
    #: Per-nest cycles of the estimate that scored ``func_op``.
    nest_cycles: Optional[List[int]] = None


@dataclass
class _Sweep:
    """What one sweep's ladder and frontier enrichment pass share."""

    evaluator: Evaluator
    budget: FPGADevice
    objective: Objective
    space: Space
    engine: DiagnosticEngine
    quarantine: List[QuarantinedCandidate]
    journal: Optional[CheckpointJournal] = None
    best: Optional[_Best] = None
    # Multi-objective bookkeeping.  The ladder runs identically for every
    # objective (single-objective results stay bit-identical); frontier
    # modes additionally remember every scored candidate, in visit
    # order, so the post-ladder enrichment pass can complete the
    # (visited parallelism) x (bank cap) grid deterministically.
    scored: Dict[str, Tuple[Dict[str, int], int, SynthesisReport]] = field(
        default_factory=dict
    )

    @property
    def stats(self) -> DseStats:
        return self.evaluator.stats


def _search(sweep: _Sweep) -> Tuple[_Best, Schedule, Optional[List[ParetoPoint]]]:
    evaluator, objective = sweep.evaluator, sweep.objective
    parallelism = {name: 1 for name in evaluator.nodes}
    bank_cap = sweep.space.bank_caps[0]
    # The degree-1 baseline must evaluate: without it there is no legal
    # design to degrade to, so a failure here is fatal (as a diagnostic,
    # not a traceback).
    try:
        report, configs, func_op, nest_cycles = _evaluate(sweep, parallelism, bank_cap)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        raise DiagnosticError(evaluator.diagnostic_of(exc)) from exc
    sweep.best = _Best(report, configs, dict(parallelism), bank_cap, func_op, nest_cycles)
    # The degree-1 design is the latency normalizer for weighted
    # objectives (the worst latency the ladder ever accepts).
    baseline_report = report

    _climb(sweep, parallelism)

    # The ladder above ran exactly as it does for "single" (its
    # trajectory, journal records, and best design are bit-identical);
    # frontier modes now complete the (visited parallelism) x (bank cap)
    # grid so latency-vs-resource tradeoffs the ladder rejected (or
    # never tried at smaller bank caps) become frontier candidates.
    frontier_points: Optional[List[ParetoPoint]] = None
    if objective.wants_frontier and not sweep.stats.interrupted:
        with _trace.span("dse.pareto", "dse"):
            frontier_points = _enrich(sweep)
        if objective.mode == "weighted" and frontier_points:
            # Select the frontier member minimizing the normalized
            # weighted sum; it becomes the installed design.
            reference = objective.reference_vector(baseline_report, sweep.budget)
            selected = min(
                frontier_points,
                key=lambda p: (
                    objective.scalarize(p.values, reference), p.key,
                ),
            )
            sel_par = dict(selected.parallelism)
            sweep.best = _Best(
                sweep.scored[selected.key][2], evaluator.configs(sel_par),
                sel_par, selected.bank_cap,
            )

    # The chosen design as a value.  One scored in this process keeps
    # its report and lowered function; one replayed from the journal or
    # picked off the frontier is lowered for real first.
    best = sweep.best
    with _trace.span("dse.finalize", "dse"):
        if best.func_op is None:
            best.report, best.func_op = evaluator.realize(best.configs, best.bank_cap)
        verify_func(best.func_op).raise_if_errors()
        schedule = Schedule(evaluator.directives(best.configs))
    return best, schedule, frontier_points


def _note_scored(
    sweep: _Sweep, par: Dict[str, int], bank_cap: int, report: SynthesisReport
) -> None:
    if sweep.objective.wants_frontier:
        sweep.scored.setdefault(
            candidate_key(par, bank_cap), (dict(par), bank_cap, report)
        )


def _quarantine(
    sweep: _Sweep, exc: BaseException, par: Dict[str, int], bank_cap: int
) -> None:
    stats = sweep.stats
    diagnostic = sweep.evaluator.diagnostic_of(exc)
    elapsed = getattr(exc, "elapsed_s", None)
    stats.quarantined += 1
    if diagnostic.code == "DSE003":
        stats.timeouts += 1
        if elapsed is not None:
            stats.timeout_s += elapsed
    sweep.quarantine.append(
        QuarantinedCandidate(dict(par), bank_cap, diagnostic, elapsed_s=elapsed)
    )
    sweep.engine.emit(diagnostic)
    if sweep.journal is not None:
        sweep.journal.append_eval(
            stats.candidates, candidate_key(par, bank_cap), par, bank_cap,
            code=diagnostic.code, message=diagnostic.message,
            elapsed_s=elapsed,
        )


def _evaluate(
    sweep: _Sweep,
    par: Dict[str, int],
    bank_cap: int,
) -> Tuple[
    SynthesisReport, Dict[str, NodeConfig], Optional[FuncOp], Optional[List[int]]
]:
    """Score one candidate at its sequential position in the sweep.

    Journal replay, candidate ordinals, fault-plan hooks and the
    checkpoint append live here; the scoring itself is
    :meth:`Evaluator.realize`.  Returns the report, the configs, and the
    lowered function and per-nest cycles (None when replayed).
    """
    evaluator, stats, journal = sweep.evaluator, sweep.stats, sweep.journal
    stats.evaluations += 1
    configs = evaluator.configs(par)
    jkey = candidate_key(par, bank_cap)
    if journal is not None:
        record = journal.replay(jkey)
        if record is not None:
            # Resumed sweep: this candidate was already scored before
            # the crash.  The journaled cycles/resources are all the
            # search decisions consume; no func_op exists (the final
            # best design is re-lowered for real at the end).
            stats.replayed += 1
            report = journal.report_from(
                record, evaluator.function.name,
                evaluator.estimator.device, evaluator.estimator.clock_ns,
            )
            _note_scored(sweep, par, bank_cap, report)
            return report, configs, None, None
    ordinal = stats.candidates
    stats.candidates += 1
    span_args = None
    if _trace.enabled():
        span_args = {
            "ordinal": ordinal,
            "bank_cap": bank_cap,
            "parallelism": dict(par),
        }
    fault_plan = evaluator.context.fault_plan
    if fault_plan is not None:
        fault_plan.enter_candidate(ordinal)
    t0 = time.perf_counter()
    try:
        with _trace.span("dse.candidate", "dse", span_args):
            with evaluator.watchdog():
                report, func_op = evaluator.realize(configs, bank_cap)
    finally:
        if fault_plan is not None:
            fault_plan.exit_candidate()
    if journal is not None:
        journal.append_eval(
            ordinal, jkey, par, bank_cap, report=report,
            elapsed_s=time.perf_counter() - t0,
        )
    _note_scored(sweep, par, bank_cap, report)
    return report, configs, func_op, evaluator.nest_cycles


def _latencies_for_best(sweep: _Sweep) -> Dict[str, int]:
    """Per-node latencies of the current best design.

    On a resumed sweep the best design may have been replayed (no
    lowered func_op); it is realized first, as the finalize does.
    """
    best, evaluator = sweep.best, sweep.evaluator
    if best.func_op is None:
        best.report, best.func_op = evaluator.realize(best.configs, best.bank_cap)
        best.nest_cycles = evaluator.nest_cycles
    return evaluator.node_latencies(best.func_op, best.nest_cycles)


def _is_noop_step(
    sweep: _Sweep, trial: Dict[str, int], members: Tuple[str, ...]
) -> bool:
    """Whether doubling ``members`` re-plans the best design's own configs.

    Factor quantization (even-divisor preference, legality) can make a
    doubled degree produce the exact same configs; that is a no-op step,
    not a dead end -- the ladder keeps climbing.  Planning runs under
    the candidate watchdog; its failures are the caller's to handle.
    """
    configs = sweep.best.configs
    with sweep.evaluator.watchdog():
        trial_plan = {
            member: sweep.evaluator.node_config(member, trial[member])
            for member in members
        }
    return all(
        trial_plan[member].unrolls == configs[member].unrolls
        and trial_plan[member].pipeline_dim == configs[member].pipeline_dim
        for member in members
    )


def _improves(sweep: _Sweep, report: SynthesisReport) -> bool:
    """Whether the ladder would accept ``report`` over its best design."""
    return (
        sweep.budget.admits(report.resources)
        and report.total_cycles < sweep.best.report.total_cycles
    )


def _climb(sweep: _Sweep, parallelism: Dict[str, int]) -> None:
    """The bottleneck ladder: double the critical group until nothing fits."""
    evaluator, stats, engine = sweep.evaluator, sweep.stats, sweep.engine
    graph, deadline = evaluator.graph, evaluator.sweep_deadline
    space = sweep.space
    active = set(evaluator.nodes)
    try:
        while active:
            if deadline is not None and deadline.exceeded():
                # Same graceful-degradation contract as estimator faults:
                # the best design found so far is the answer.
                stats.time_budget_hit = True
                engine.note(
                    "DSE004",
                    f"sweep time budget ({deadline.budget_s:.1f}s) exhausted; "
                    "stopping at the best design found so far",
                )
                break
            try:
                latencies = _latencies_for_best(sweep)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                # Bottleneck analysis failed on an already-accepted design:
                # degrade gracefully to the best design found so far.
                engine.emit(evaluator.diagnostic_of(exc))
                engine.note(
                    "GEN001",
                    "bottleneck analysis failed; stopping the search at the "
                    "best design found so far",
                )
                break
            bottleneck = _pick_bottleneck(graph, latencies, active)
            if bottleneck is None:
                break
            # Fused statements share one pipeline, so they step together:
            # the optimization unit is the fusion group of the bottleneck.
            members = space.group_of(bottleneck)
            trial = space.step(parallelism, members)
            if trial is None:
                active.difference_update(members)
                continue
            try:
                noop = _is_noop_step(sweep, trial, members)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                _quarantine(sweep, exc, trial, 0)
                active.difference_update(members)
                continue
            if noop:
                parallelism = trial
                continue
            accepted = False
            # Full banking first; if the spatial design overflows, trade
            # banks for operator sharing (a larger II lets copies timeshare
            # units -- the paper's BICG [1,32] / II=2 design point).
            for bank_cap in space.bank_caps:
                try:
                    trial_report, trial_configs, trial_func, trial_cycles = _evaluate(
                        sweep, trial, bank_cap
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    # A trial's failure must not abort the sweep.
                    # Quarantine it (the failure is banking-independent,
                    # so other caps are not retried) and keep searching
                    # from the best design.
                    _quarantine(sweep, exc, trial, bank_cap)
                    break
                if _improves(sweep, trial_report):
                    parallelism = trial
                    sweep.best = _Best(
                        trial_report, trial_configs, dict(trial), bank_cap,
                        trial_func, trial_cycles,
                    )
                    accepted = True
                    break
            if not accepted:
                active.difference_update(members)
    except KeyboardInterrupt:
        # SIGINT is a graceful stop: the checkpoint journal is already
        # flushed through the last completed candidate, and the best
        # design found so far is installed and returned.
        stats.interrupted = True
        engine.note(
            "DSE007",
            "sweep interrupted; stopping at the best design found so far",
        )


# -- frontier enrichment (objective="pareto"/"weighted") ----------------------


def _enrich(sweep: _Sweep) -> List[ParetoPoint]:
    """Complete the (visited parallelism) x (bank cap) grid; the frontier.

    Every grid member the ladder did not score is evaluated like any
    other candidate, in grid order (the caps of one parallelism vector
    are consecutive, so they share one assembled program).  A member
    that caused no new nest lowering and no new per-nest estimate -- a
    bank cap that derives an already-scored banking -- was answered by
    the design scored just before it (in both cache modes) or by the
    evaluator's memos, and is counted as ``surrogate_skips``; one
    that did either is ``pareto_evaluated``; one the resume journal
    answered is neither (``replayed`` counts it).
    """
    stats, journal, engine = sweep.stats, sweep.journal, sweep.engine
    objective, scored = sweep.objective, sweep.scored
    deadline = sweep.evaluator.sweep_deadline
    estimator = sweep.evaluator.estimator
    # Distinct parallelism vectors, in the order the sweep first scored them.
    visited: Dict[tuple, Dict[str, int]] = {}
    for par, _, _ in scored.values():
        visited.setdefault(tuple(sorted(par.items())), par)
    grid: List[Tuple[Dict[str, int], int, str]] = [
        (par, cap, candidate_key(par, cap))
        for par in visited.values()
        for cap in sweep.space.bank_caps
    ]
    stats.pareto_candidates += len(grid)

    try:
        for par, cap, jkey in grid:
            if jkey in scored:
                continue
            if deadline is not None and deadline.exceeded():
                if not stats.time_budget_hit:
                    stats.time_budget_hit = True
                    engine.note(
                        "DSE004",
                        f"sweep time budget ({deadline.budget_s:.1f}s) "
                        "exhausted; publishing the partial frontier",
                    )
                break
            replayed = stats.replayed
            work = (stats.group_lowerings, estimator.nest_misses)
            try:
                _evaluate(sweep, par, cap)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                _quarantine(sweep, exc, par, cap)
                continue
            if stats.replayed > replayed:
                continue
            if (stats.group_lowerings, estimator.nest_misses) != work:
                stats.pareto_evaluated += 1
            else:
                stats.surrogate_skips += 1
    except KeyboardInterrupt:
        stats.interrupted = True
        engine.note(
            "DSE007",
            "sweep interrupted; publishing the partial frontier",
        )

    frontier = ParetoFrontier()
    for par, cap, jkey in grid:
        entry = scored.get(jkey)
        if entry is None or not sweep.budget.admits(entry[2].resources):
            continue
        frontier.insert(
            ParetoPoint.from_report(jkey, par, cap, objective, entry[2])
        )
    frontier_points = frontier.points()
    stats.frontier_size += len(frontier_points)
    if journal is not None:
        journal.append_frontier(objective.canonical, frontier.to_records())
    return frontier_points


def _pick_bottleneck(graph, latencies: Dict[str, int], active) -> Optional[str]:
    """The highest-latency active node on the critical data path."""
    paths = graph.data_paths()
    ordered_paths = sorted(
        paths,
        key=lambda p: sum(latencies.get(n, 0) for n in p),
        reverse=True,
    )
    for path in ordered_paths:
        candidates = [n for n in path if n in active]
        if candidates:
            return max(candidates, key=lambda n: latencies.get(n, 0))
    remaining = [n for n in active]
    if remaining:
        return max(remaining, key=lambda n: latencies.get(n, 0))
    return None
