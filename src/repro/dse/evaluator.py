"""The one candidate-evaluation pipeline of stage 2 (paper Section VI-B).

Every design point is scored the same way -- node configs -> install
schedule -> derive/apply partitions -> polyir/isl lowering -> virtual-HLS
estimate -- and :class:`Evaluator` is the only place that pipeline is
spelled out.  The search (:mod:`repro.dse.engine`) and dataflow
realization (:mod:`repro.dataflow.dse`) are both clients of it, so they
cannot drift apart: the same report, the same ``DSE003`` timeout and the
same ``DSE001`` wrapper come out of every route.

A candidate's polyhedral program is assembled once, incrementally, in
both cache modes (:meth:`Evaluator.scheduled`); the directive list
``install`` writes on the function is the artifact, and replaying it
from scratch gives the same statements.

Evaluation is memoized at several layers (all local to one
:class:`Evaluator` unless noted):

- *node config*: ``(node, parallelism)`` -> :class:`NodeConfig`;
- *statement*: node-config fingerprint -> that node's stage-2 delta and
  transformed statement, before fusion (a ladder step changes one fusion
  group, so every other node's statement is reused);
- *nest lowering*: per top-level loop nest, keyed on statement
  fingerprints (incremental lowering splices unchanged nests);
- *nest estimates*: per estimator instance, keyed on each top-level
  nest's fingerprint and the partition schemes of the arrays it touches;
- *isl kernels*: global process-wide memo tables
  (:mod:`repro.isl.memo`; switched by ``auto_dse``, not here).

A revisited design -- same configs, same derived banking -- is answered
in full by the nest-lowering and nest-estimate layers, so there is no
whole-design memo above them.

``cache=False`` turns every local layer off in the constructor; cached
and uncached evaluators return bit-identical reports and lowered
functions for the same candidate.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro import trace as _trace
from repro.affine.ir import AffineStoreOp, FuncOp
from repro.affine.lowering import lower_program_incremental
from repro.depgraph.graph import build_dependence_graph
from repro.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
    SourceLocation,
)
from repro.dsl.function import Function
from repro.dse.stage1 import plan_stage1
from repro.dse.stage2 import (
    NodeConfig,
    NodeDelta,
    derive_partitions,
    fusion_directives,
    node_delta,
    plan_node_config,
    unroll_spreads,
)
from repro.dse.stats import DseStats
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.estimator import HlsEstimator, TransientEstimatorError
from repro.hls.report import SynthesisReport
from repro.polyir.program import PolyProgram
from repro.polyir.statement import PolyStatement
from repro.util.deadline import (
    Deadline,
    DeadlineExceeded,
    active as _active_deadline,
    deadline_scope,
)

MAX_ESTIMATOR_RETRIES = 2
RETRY_BACKOFF_S = 0.05
# Cap on how long one retry-backoff slice may sleep before re-polling
# the active deadlines.
BACKOFF_SLICE_S = 0.01


def _backoff_sleep(
    seconds: float,
    sweep_deadline: Optional[Deadline] = None,
    slice_s: float = BACKOFF_SLICE_S,
) -> float:
    """Sleep up to ``seconds`` without sleeping through a deadline.

    The estimator retry backoff must not let a sweep overshoot its
    budgets while blocked in ``time.sleep``: the sleep is taken in small
    slices, each of which first polls the active per-candidate
    :class:`Deadline` (raising :class:`DeadlineExceeded`, which the
    candidate scope converts to a ``DSE003`` timeout quarantine) and
    gives up early -- without raising -- once the whole-sweep deadline
    is exhausted, so the search loop's own budget check fires at the
    next iteration.  Returns the wall time actually slept so callers can
    attribute it separately from estimation time.
    """
    slept = 0.0
    end = time.monotonic() + seconds
    while True:
        candidate_deadline = _active_deadline()
        if candidate_deadline is not None:
            candidate_deadline.poll()
        if sweep_deadline is not None and sweep_deadline.exceeded():
            return slept
        left = end - time.monotonic()
        if left <= 0:
            return slept
        nap = min(slice_s, left)
        if candidate_deadline is not None:
            # Never sleep meaningfully past the candidate budget; the
            # +1ms keeps the loop progressing when the budget boundary
            # lands inside this slice (the next poll then raises).
            nap = min(nap, max(candidate_deadline.remaining(), 0.0) + 0.001)
        time.sleep(nap)
        slept += nap


def _estimate_with_retries(
    estimator: HlsEstimator,
    func_op: FuncOp,
    location: SourceLocation,
    stats: DseStats,
    sweep_deadline: Optional[Deadline] = None,
) -> SynthesisReport:
    """Estimate with bounded, deadline-aware retry backoff.

    Transient estimator failures are retried; ``DSE002`` is raised when
    the retries run out.  ``stats`` counts each retry and the backoff
    actually slept before it.
    """
    last: Optional[TransientEstimatorError] = None
    for attempt in range(MAX_ESTIMATOR_RETRIES + 1):
        try:
            return estimator.estimate(func_op)
        except TransientEstimatorError as exc:
            last = exc
            if attempt < MAX_ESTIMATOR_RETRIES:
                stats.estimator_retries += 1
                stats.retry_backoff_s += _backoff_sleep(
                    RETRY_BACKOFF_S * (2 ** attempt), sweep_deadline
                )
    raise DiagnosticError(
        f"estimator failed after {MAX_ESTIMATOR_RETRIES + 1} "
        f"attempts: {last}",
        code="DSE002",
        location=location,
    ) from last


class Evaluator:
    """Scores ``(parallelism, bank_cap)`` candidates of one function.

    Construction runs the search preamble on ``function`` (reset to the
    structural directives, optional legality preflight, stage-1 plan and
    program); after that :meth:`configs` plans a parallelism vector and
    :meth:`realize` installs, partitions, lowers and estimates it,
    leaving the design installed on the function.  ``stats`` receives
    the work and per-layer hit/miss counters (a private
    :class:`DseStats` when the caller does not keep one).
    """

    def __init__(
        self,
        function: Function,
        device: Optional[FPGADevice] = None,
        clock_ns: Optional[float] = None,
        *,
        keep_existing_schedule: bool = False,
        cache: bool = True,
        candidate_timeout_s: Optional[float] = None,
        sweep_deadline: Optional[Deadline] = None,
        stats: Optional[DseStats] = None,
        diagnostics: Optional[DiagnosticEngine] = None,
    ):
        device = device or DEFAULT_DEVICE
        self.function = function
        self.location = SourceLocation(function=function.name)
        self.cache = cache
        self.candidate_timeout_s = candidate_timeout_s
        self.sweep_deadline = sweep_deadline
        self.stats = stats if stats is not None else DseStats(cache_enabled=cache)
        self.estimator = HlsEstimator(
            device=device,
            clock_ns=clock_ns if clock_ns is not None else device.clock_ns,
            memoize_reports=cache,
        )

        # Reset the function to the directives the search builds upon.
        self.structural = function.structural_directives()
        if not keep_existing_schedule:
            function.reset_schedule()
            for directive in self.structural:
                function.schedule.add(directive)
        self._saved_partitions = {
            p.name: p.partition_scheme for p in function.placeholders()
        }
        if diagnostics is not None:
            # Legality preflight on those directives (structural
            # after/fuse, or the user's full schedule when kept): a
            # dependence-violating directive is rejected here, before
            # any lowering, with a diagnostic naming the violated
            # dependence.
            from repro.preflight import preflight_schedule

            preflight_schedule(function, engine=diagnostics)
            diagnostics.raise_if_errors()

        self.graph = build_dependence_graph(function, analyze=False)
        t0 = time.perf_counter()
        with _trace.span("dse.stage1", "dse"):
            self.plan = plan_stage1(function, self.graph)
            # What every candidate shares: structural + stage-1
            # directives, replayed once.  Never transformed in place.
            self.base = PolyProgram(function).apply_schedule(
                self.structural + self.plan.directives
            )
        self.stats.stage1_s += time.perf_counter() - t0
        self.nodes: List[str] = [c.name for c in function.computes]

        self._config_memo: Dict[Tuple[str, int], NodeConfig] = {}
        self._statement_memo: Dict[tuple, Tuple[NodeDelta, PolyStatement]] = {}
        # (config fingerprints, program, node deltas, unroll spreads) of
        # the most recent candidate.
        self._scheduled: Optional[
            Tuple[tuple, PolyProgram, Dict[str, NodeDelta], dict]
        ] = None
        self._nest_memo: Optional[Dict[tuple, list]] = {} if cache else None

    # -- planning -----------------------------------------------------------

    def node_config(self, name: str, degree: int) -> NodeConfig:
        # With the cache off the memo tables simply stay empty.
        config = self._config_memo.get((name, degree))
        if config is None:
            config = plan_node_config(self.plan, name, degree)
            if self.cache:
                self.stats.config_cache_misses += 1
                self._config_memo[(name, degree)] = config
        else:
            self.stats.config_cache_hits += 1
        return config

    def configs(self, parallelism: Dict[str, int]) -> Dict[str, NodeConfig]:
        """Node configs of a parallelism vector (absent nodes: degree 1)."""
        return {
            name: self.node_config(name, parallelism.get(name, 1))
            for name in self.nodes
        }

    def fingerprint(self, configs: Dict[str, NodeConfig]) -> tuple:
        return tuple(configs[name].fingerprint() for name in self.nodes)

    def install(self, configs: Dict[str, NodeConfig]) -> None:
        """Install a trial schedule on the function (partitions separate).

        Structural after/fuse directives (algorithm-level loop sharing)
        are re-added first so they keep their meaning under the new
        schedule; then come the stage-1 directives, each node's stage-2
        directives and the fusion directives, read off the deltas the
        assembled candidate keeps.
        """
        self.scheduled(configs)
        deltas = self._scheduled[2]
        directives = self.structural + self.plan.directives
        for delta in deltas.values():
            directives += delta.directives
        directives += fusion_directives(self.plan, deltas)
        function = self.function
        function.reset_schedule()
        for directive in directives:
            function.schedule.add(directive)

    def scheduled(self, configs: Dict[str, NodeConfig]) -> PolyProgram:
        """The polyhedral program of ``configs``, assembled incrementally.

        Loop transforms and hardware opts touch only the statement they
        name, so a candidate is the base program with each node's
        stage-2 directives applied to that node's statement alone
        (memoized by config fingerprint); only the fusion ``after``
        surgery reads other statements, and it runs last, on the whole.
        The most recent program is kept with its node deltas and unroll
        spreads -- the installed directive list, partitions, lowering and
        the bank-cap retries of one candidate share them -- so callers
        must not transform it.
        """
        key = self.fingerprint(configs)
        if self._scheduled is not None and self._scheduled[0] == key:
            return self._scheduled[1]
        stats = self.stats
        t0 = time.perf_counter()
        program = self.base.copy()
        deltas = {}
        for index, (name, memo_key) in enumerate(zip(self.nodes, key)):
            memoized = self._statement_memo.get(memo_key)
            if memoized is None:
                delta = node_delta(self.plan, configs[name])
                program.apply_schedule(delta.directives)
                if self.cache:
                    stats.statement_cache_misses += 1
                    # Copied on store and on load: fusion surgery and
                    # annotations mutate statics / hw_opts in place.  The
                    # index dims are read first so every copy carries them.
                    program.statements[index].index_dims()
                    self._statement_memo[memo_key] = (
                        delta, program.statements[index].copy()
                    )
            else:
                stats.statement_cache_hits += 1
                delta, statement = memoized
                program.statements[index] = statement.copy()
            deltas[name] = delta
        program.apply_schedule(fusion_directives(self.plan, deltas))
        spreads = unroll_spreads(program)
        stats.lowering_s += time.perf_counter() - t0
        # Only a fully assembled program becomes current.
        self._scheduled = (key, program, deltas, spreads)
        return program

    def _apply_partitions(self, derived: Dict[str, Tuple[int, ...]]) -> None:
        """Reset partition schemes to the saved baseline, then apply derived."""
        placeholders = {p.name: p for p in self.function.placeholders()}
        for name, placeholder in placeholders.items():
            placeholder.partition_scheme = self._saved_partitions.get(name)
        for name, factors in derived.items():
            if any(f > 1 for f in factors):
                placeholders[name].partition(list(factors), "cyclic")

    # -- scoring ------------------------------------------------------------

    def realize(
        self, configs: Dict[str, NodeConfig], bank_cap: int
    ) -> Tuple[SynthesisReport, FuncOp]:
        """Install, partition, lower and estimate one design point.

        The design stays installed on the function.  A candidate whose
        configs and derived banking equal an already-scored one's (a
        bank cap that does not bind, a frontier grid member the ladder
        reached another way) needs no memo of its own: every top-level
        nest hits the nest-lowering memo and every nest estimate the
        estimator's per-nest memo.
        """
        stats = self.stats
        self.install(configs)
        scheduled = self.scheduled(configs)
        self._apply_partitions(
            derive_partitions(self.function, max_banks=bank_cap, spreads=self._scheduled[3])
        )
        stats.lowerings += 1
        t0 = time.perf_counter()
        func_op = lower_program_incremental(scheduled, cache=self._nest_memo, stats=stats)
        stats.lowering_s += time.perf_counter() - t0
        return self.estimate(func_op), func_op

    def estimate(self, func_op: FuncOp) -> SynthesisReport:
        """One counted, timed estimator call with transient-fault retries."""
        stats = self.stats
        stats.estimations += 1
        t0 = time.perf_counter()
        backoff_before = stats.retry_backoff_s
        try:
            return _estimate_with_retries(
                self.estimator, func_op, self.location, stats, self.sweep_deadline
            )
        finally:
            # Retry backoff is idle waiting, not estimation: attribute
            # it to its own counter so --stats does not inflate the
            # estimator's share of the profile.
            stats.estimation_s += (
                time.perf_counter() - t0
                - (stats.retry_backoff_s - backoff_before)
            )

    def node_latencies(self, func_op: FuncOp) -> Dict[str, int]:
        """Latency attributed to each compute via its top-level loop nest:
        one estimate of ``func_op``, read per nest (all memo hits when the
        design was just scored)."""
        self.estimate(func_op)
        latencies: Dict[str, int] = {}
        for op, cycles in zip(func_op.body, self.estimator.nest_cycles):
            for name in {inner.statement_name() for inner in op.walk()
                         if isinstance(inner, AffineStoreOp)}:
                if name:
                    latencies[name] = latencies.get(name, 0) + cycles
        return latencies

    # -- failure semantics --------------------------------------------------

    @contextmanager
    def watchdog(self):
        """Arm the per-candidate watchdog; overruns become DSE003 errors.

        The :class:`Deadline` is polled cooperatively from the hot loops
        of Fourier-Motzkin elimination, AST building, and lowering, so a
        pathological candidate is abandoned at its next checkpoint
        instead of hanging the sweep.
        """
        if self.candidate_timeout_s is None:
            yield
            return
        try:
            with deadline_scope(Deadline(self.candidate_timeout_s)):
                yield
        except DeadlineExceeded as exc:
            error = DiagnosticError(
                f"candidate evaluation timed out after {exc.elapsed_s:.3f}s "
                f"(budget {exc.budget_s:.3f}s)",
                code="DSE003",
                location=self.location,
            )
            error.elapsed_s = exc.elapsed_s
            raise error from exc

    def diagnostic_of(self, exc: BaseException) -> Diagnostic:
        """The structured form of a candidate failure (DSE001 if foreign)."""
        if isinstance(exc, DiagnosticError):
            return exc.diagnostic
        return Diagnostic(
            Severity.ERROR,
            "DSE001",
            f"{type(exc).__name__}: {exc}",
            location=self.location,
        )

