"""The one candidate-evaluation pipeline of stage 2 (paper Section VI-B).

Every design point is scored the same way -- node configs -> polyhedral
program -> derived banking -> polyir/isl lowering -> virtual-HLS
estimate -- and :class:`Evaluator` is the only place that pipeline is
spelled out.  The search (:mod:`repro.dse.engine`) is its client, and
dataflow realization (:mod:`repro.dataflow.dse`) asks each stage sweep's
own evaluator for the point the balancer selected, so no second
evaluator re-derives a design its sweep scored.

A candidate is a value: its program is assembled once, incrementally,
in both cache modes (:meth:`Evaluator.scheduled`), and its banking
reaches lowering as a partition map.  :meth:`Evaluator.install` is the
one write on the function, and replaying the directive list it writes
from scratch gives the same statements.

Evaluation is memoized at several layers (all local to one
:class:`Evaluator` unless noted):

- *node config*: ``(node, parallelism)`` -> :class:`NodeConfig`;
- *statement*: node-config fingerprint -> that node's stage-2 delta,
  transformed statement (before fusion) and unroll-spread count (a
  ladder step changes one fusion group, so every other node's statement
  is reused, and only the arrays the changed nodes read are rebanked);
- *nest lowering*: per top-level loop nest, keyed on its members'
  node-config fingerprints and statics (incremental lowering splices
  unchanged nests);
- *nest estimates*: per estimator instance, keyed on each top-level
  nest's fingerprint and the partition schemes of the arrays it touches;
- *isl kernels*: the memo context (:mod:`repro.isl.memo`) of the
  :class:`~repro.session.SessionContext` the evaluator was built under,
  which :meth:`Evaluator.realize` and :meth:`Evaluator.install`
  activate, so an evaluator that outlives its sweep (dataflow
  realization) works in that sweep's cache mode and fault plan.

A revisited design -- same configs, same derived banking -- is answered
in full by the nest-lowering and nest-estimate layers, so there is no
whole-design memo above them.  The one exception, in both cache modes,
is the design scored just before: :meth:`Evaluator.realize` answers a
bank cap that derives the same banking as the cap before it with that
design's score.

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
from repro.affine.lowering import assemble, lower_program_incremental
from repro.depgraph.graph import build_dependence_graph
from repro.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    Severity,
    SourceLocation,
)
from repro.dsl.function import Function
from repro.dsl.schedule import Directive
from repro.dse.stage1 import plan_stage1
from repro.dse.stage2 import (
    NodeConfig,
    NodeDelta,
    Space,
    Spreads,
    banked_partitions,
    count_spreads,
    derive_partitions,
    fusion_directives,
    node_delta,
    plan_node_config,
)
from repro.dse.stats import DseStats
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.estimator import HlsEstimator, TransientEstimatorError
from repro.hls.report import SynthesisReport
from repro.polyir.program import PolyProgram
from repro.polyir.statement import PolyStatement
from repro.session import SessionContext
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
    next iteration.  Returns the wall time actually slept, read off the
    clock (a nap that wakes late counts in full), so callers can
    attribute it separately from estimation time.
    """
    start = time.monotonic()
    end = start + seconds
    while True:
        candidate_deadline = _active_deadline()
        if candidate_deadline is not None:
            candidate_deadline.poll()
        now = time.monotonic()
        if sweep_deadline is not None and sweep_deadline.exceeded():
            return now - start
        left = end - now
        if left <= 0:
            return now - start
        nap = min(slice_s, left)
        if candidate_deadline is not None:
            # Never sleep meaningfully past the candidate budget; the
            # +1ms keeps the loop progressing when the budget boundary
            # lands inside this slice (the next poll then raises).
            nap = min(nap, max(candidate_deadline.remaining(), 0.0) + 0.001)
        time.sleep(nap)


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
    program) and reads the arrays' partition schemes once; after that
    :meth:`configs` plans a parallelism vector, :meth:`realize` banks,
    lowers and estimates it without touching the function, and
    :meth:`install` writes a chosen design onto it -- any design it
    scored, in any order, banked over the schemes read at construction,
    under :attr:`context` (the sweep's
    :class:`~repro.session.SessionContext`, by default the one active at
    construction).  ``stats`` receives the work and
    per-layer hit/miss counters (a private :class:`DseStats` when the
    caller does not keep one).
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
        context: Optional[SessionContext] = None,
    ):
        device = device or DEFAULT_DEVICE
        self.function = function
        self.context = context or SessionContext.current()
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
        # Every candidate's banking is laid over these schemes.
        self.partitions = function.partitions()
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
        self._statement_memo: Dict[tuple, Tuple[NodeDelta, PolyStatement, Spreads]] = {}
        # The nodes whose stage-1 statement indexes each array, the
        # arrays in the order a from-scratch count meets them.
        self._readers: Dict[str, List[int]] = {}
        for index, stmt in enumerate(self.base.statements):
            for array in dict.fromkeys(array.name for array, _ in stmt.index_dims()):
                self._readers.setdefault(array, []).append(index)
        # (per-node spread counts, spreads) of the last assembled
        # candidate, and per bank cap (spreads, banking, partitions) of
        # the last banking derived under it: a candidate recounts and
        # rebanks only the arrays of the nodes it changes.
        self._spread_state = ([None] * len(self.nodes), dict.fromkeys(self._readers))
        self._banked: Dict[int, tuple] = {}
        # (config fingerprints, program, node deltas, unroll spreads,
        # lowered top-level ops or None) of the most recent candidate.
        self._scheduled: Optional[
            Tuple[tuple, PolyProgram, Dict[str, NodeDelta], dict, Optional[list]]
        ] = None
        # (config fingerprints, banking, report, lowered function,
        # per-nest cycles) of the design ``realize`` scored last.
        self._scored: Optional[tuple] = None
        self._nest_memo: Optional[Dict[tuple, list]] = {} if cache else None

    # -- planning -----------------------------------------------------------

    def space(self, max_parallelism: int) -> Space:
        """The design space: the plan's fusion groups step together."""
        return Space.build(self.function, self.plan.fused_groups, max_parallelism)

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

    def directives(self, configs: Dict[str, NodeConfig]) -> List[Directive]:
        """The directive list of ``configs``, as :meth:`install` writes it.

        Structural after/fuse directives (algorithm-level loop sharing)
        come first so they keep their meaning under the new schedule;
        then the stage-1 directives, each node's stage-2 directives and
        the fusion directives, read off the deltas the assembled
        candidate keeps.
        """
        self.scheduled(configs)
        deltas = self._scheduled[2]
        directives = self.structural + self.plan.directives
        for delta in deltas.values():
            directives += delta.directives
        return directives + fusion_directives(self.plan, deltas)

    def install(self, configs: Dict[str, NodeConfig], bank_cap: int) -> None:
        """Write one design onto the function: its :meth:`directives` and
        the partitions :meth:`realize` lowers it with."""
        function = self.function
        with self.context.activate():
            function.reset_schedule()
            for directive in self.directives(configs):
                function.schedule.add(directive)
            function.set_partitions(self._bank(self._scheduled[3], bank_cap)[1])

    def scheduled(self, configs: Dict[str, NodeConfig]) -> PolyProgram:
        """The polyhedral program of ``configs``, assembled incrementally.

        Loop transforms and hardware opts touch only the statement they
        name, so a candidate is the base program with each node's
        stage-2 directives applied to that node's statement alone
        (memoized by config fingerprint); only the fusion ``after``
        surgery reads other statements, and it runs last, on the whole.
        The most recent program is kept with its node deltas, unroll
        spreads and, once :meth:`realize` has lowered it, its lowered
        top-level ops -- the banking, lowering, bank-cap retries and
        installed directive list of one candidate share them -- so
        callers must not transform it (its statements are the memo's own,
        but for the ones the fusion surgery edits).  The spreads are
        merged from each node's count of its stage-1 statement under its
        unroll copies (:meth:`_merge_spreads`), not read off the
        rewritten statements.
        """
        key = self.fingerprint(configs)
        if self._scheduled is not None and self._scheduled[0] == key:
            return self._scheduled[1]
        stats = self.stats
        t0 = time.perf_counter()
        statements, deltas, counts = [], {}, []
        for index, (name, memo_key) in enumerate(zip(self.nodes, key)):
            memoized = self._statement_memo.get(memo_key)
            if memoized is None:
                base = self.base.statements[index]
                delta = node_delta(self.plan, configs[name])
                single = PolyProgram(self.function, [base.copy()])
                memoized = (
                    delta,
                    single.apply_schedule(delta.directives).statements[0],
                    count_spreads([(base.index_dims(), delta.copies)]),
                )
                if self.cache:
                    stats.statement_cache_misses += 1
                    self._statement_memo[memo_key] = memoized
            else:
                stats.statement_cache_hits += 1
            delta, statement, count = memoized
            deltas[name] = delta
            statements.append(statement)
            counts.append(count)
        # The statements are the memo's own: the fusion surgery edits the
        # statics of each ``after``'s consumer, so only those are copied.
        fusion = fusion_directives(self.plan, deltas)
        for directive in fusion:
            index = self.nodes.index(directive.compute_name)
            statements[index] = statements[index].copy()
        program = PolyProgram(self.function, statements).apply_schedule(fusion)
        spreads = self._merge_spreads(counts)
        stats.lowering_s += time.perf_counter() - t0
        # Only a fully assembled program becomes current.
        self._scheduled = (key, program, deltas, spreads, None)
        return program

    def _merge_spreads(self, counts: List[Spreads]) -> Spreads:
        """The :func:`~repro.dse.stage2.count_spreads` of a candidate from
        its nodes' own counts, merged again only for the arrays read by
        the nodes whose count changed since the last candidate."""
        last, spreads = self._spread_state
        spreads = dict(spreads)
        for array in {a for count, old in zip(counts, last) if count is not old for a in count}:
            readers = self._readers[array]
            columns = zip(*(counts[index][array][1] for index in readers))
            spreads[array] = (counts[readers[0]][array][0], tuple(map(max, columns)))
        self._spread_state = (counts, spreads)
        return spreads

    # -- scoring ------------------------------------------------------------

    def realize(
        self, configs: Dict[str, NodeConfig], bank_cap: int
    ) -> Tuple[SynthesisReport, FuncOp]:
        """Bank, lower and estimate one design point.

        The function is left as it is: the banking reaches lowering as
        a partition map.  A candidate with the configs and derived
        banking of the design scored just before it (a bank cap that
        does not bind) is that design and takes its report and lowered
        function -- unless the fault plan schedules an estimator fault
        for it, which must reach the estimator.  One whose configs and
        derived banking equal an earlier design's (a frontier grid
        member the ladder reached another way) needs no memo of its
        own: every top-level nest hits the nest-lowering memo and every
        nest estimate the estimator's per-nest memo.  The schedule is
        lowered once: a candidate with the configs of the one before it
        and another banking (a bank cap that binds) reuses its lowered
        ops under its own ``partitions`` and is estimated afresh.
        """
        stats = self.stats
        previous, self._scored = self._scored, None
        with self.context.activate():
            self.scheduled(configs)
            key, scheduled, _, spreads, body = self._scheduled
            banking, partitions = self._bank(spreads, bank_cap)
            if previous is not None and previous[:2] == (key, banking):
                plan = self.context.fault_plan
                if plan is None or not plan.estimator_fault_due():
                    self._scored = previous
                    return previous[2], previous[3]
            t0 = time.perf_counter()
            if body is None:
                stats.lowerings += 1
                func_op = lower_program_incremental(
                    scheduled, dict(zip(self.nodes, key)), self._nest_memo, stats, partitions
                )
                self._scheduled = self._scheduled[:4] + (list(func_op.body.ops),)
            else:
                func_op = assemble(self.function, body, partitions)
            stats.lowering_s += time.perf_counter() - t0
            report = self.estimate(func_op)
        self._scored = (key, banking, report, func_op, self.estimator.nest_cycles)
        return report, func_op

    def _bank(self, spreads: Spreads, bank_cap: int) -> Tuple[dict, dict]:
        """:func:`~repro.dse.stage2.derive_partitions` and
        :func:`~repro.dse.stage2.banked_partitions` of ``spreads``, redone
        only for the arrays whose spreads are not those of the last
        banking under ``bank_cap``."""
        before, banking, partitions = self._banked.get(bank_cap, ({}, {}, self.partitions))
        changed = {name: value for name, value in spreads.items() if before.get(name) is not value}
        rebanked = derive_partitions(self.function, bank_cap, changed)
        banking = {**banking, **rebanked}
        partitions = {**partitions, **banked_partitions(
            {name: self.partitions[name] for name in rebanked}, rebanked
        )}
        self._banked[bank_cap] = (spreads, banking, partitions)
        return banking, partitions

    @property
    def nest_cycles(self) -> Optional[List[int]]:
        """Per-nest cycles of the estimate of the design :meth:`realize`
        scored last; None before the first call or after a failed one."""
        return None if self._scored is None else self._scored[4]

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

    @staticmethod
    def node_latencies(func_op: FuncOp, nest_cycles: List[int]) -> Dict[str, int]:
        """Latency attributed to each compute via its top-level loop nest,
        read off ``nest_cycles``: the per-nest cycles of the estimate that
        scored ``func_op``."""
        latencies: Dict[str, int] = {}
        for op, cycles in zip(func_op.body, nest_cycles):
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

