"""Profiling counters for the DSE evaluation engine.

:class:`DseStats` records how much work one :func:`~repro.dse.engine.auto_dse`
call performed and how much each caching layer saved: design-point
evaluations, cache hits/misses per layer (nest lowering, report,
config, statement) and the globally memoized isl kernel counters
(delta over the run).  It counts, and keeps no clock but the sweep's
total and the time lost to retry backoff and timeouts: where a sweep's
time goes is the span tree's to say (``dse.stage1``,
``affine.lower_group``, ``isl.ast_build``, ``hls.estimate``, ...).
``repro dse --stats`` prints these counters, then the span profile of
the run.  Attached to :class:`~repro.dse.engine.DseResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Sequence, Tuple


@dataclass
class DseStats:
    """Work and cache counters for one DSE run."""

    cache_enabled: bool = True

    # -- work performed -----------------------------------------------------
    evaluations: int = 0          # design points scored (incl. cache hits)
    lowerings: int = 0            # full program lowerings requested
    group_lowerings: int = 0      # top-level nests actually (re)lowered
    estimations: int = 0          # estimator invocations (incl. memo hits)

    # -- fault tolerance ----------------------------------------------------
    quarantined: int = 0          # candidate evaluations that failed
    estimator_retries: int = 0    # transient estimator failures retried
    retry_backoff_s: float = 0.0  # wall time slept between estimator retries

    # -- resilience ---------------------------------------------------------
    candidates: int = 0           # real evaluations started (journal ordinals)
    replayed: int = 0             # candidates satisfied from a resume journal
    timeouts: int = 0             # candidates quarantined by the watchdog
    timeout_s: float = 0.0        # wall time lost to timed-out candidates
    interrupted: bool = False     # SIGINT stopped the sweep gracefully
    time_budget_hit: bool = False  # --time-budget exhausted mid-sweep

    # -- multi-objective (objective="pareto"/"weighted") --------------------
    pareto_candidates: int = 0    # frontier-enrichment grid members considered
    # Enrichment candidates by who answered them (journal replays are
    # neither).  The second counter predates the memos answering them;
    # it keeps its name because the frozen bench/ops.py reads it -- the
    # rename is ROADMAP 1(c)'s.
    pareto_evaluated: int = 0     # ... lowered a nest or missed an estimate
    surrogate_skips: int = 0      # ... neither: the nest and report memos
    frontier_size: int = 0        # frontier members returned

    # -- cache layers -------------------------------------------------------
    # The evaluation layer (0 hits in 1350 lookups), the partitions
    # layer (1 hit per sweep) and the design layer (answered in full by
    # the nest and report memos below) are gone; their counters stay,
    # reading 0, because the frozen bench/ops.py sums them by name
    # (ROADMAP 1(c) drops them).
    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    partition_cache_hits: int = 0
    partition_cache_misses: int = 0
    design_cache_hits: int = 0
    design_cache_misses: int = 0
    lowering_cache_hits: int = 0  # per-nest incremental lowering reuse
    lowering_cache_misses: int = 0
    report_hits: int = 0          # estimator per-nest memo
    report_misses: int = 0
    config_cache_hits: int = 0    # (node, parallelism) -> NodeConfig reuse
    config_cache_misses: int = 0
    statement_cache_hits: int = 0  # node config -> transformed statement reuse
    statement_cache_misses: int = 0

    # -- globally memoized isl kernels (delta over this run) ----------------
    isl_counters: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    # -- the sweep's wall time (``DseResult.dse_time_s``) -------------------
    total_s: float = 0.0

    # Fields that are properties of a run rather than amounts of work;
    # everything else merges by summation in :meth:`merge`.
    _MERGE_ALL = ("cache_enabled",)
    _MERGE_ANY = ("interrupted", "time_budget_hit")

    @classmethod
    def merge(cls, parts: "Sequence[DseStats]") -> "DseStats":
        """Fold per-sweep stats into one deterministic aggregate.

        Numeric counters and times sum (merged totals equal the sum
        of the parts, in order -- float addition is performed left to
        right so the result is reproducible); ``cache_enabled`` holds
        only if every sweep cached; the degradation flags hold if any
        sweep degraded.  ``isl_counters`` merges key-wise by summation.
        """
        merged = cls()
        numeric = [
            f.name
            for f in fields(cls)
            if f.name != "isl_counters"
            and f.name not in cls._MERGE_ALL
            and f.name not in cls._MERGE_ANY
        ]
        parts = list(parts)
        for name in numeric:
            value = sum(getattr(part, name) for part in parts)
            setattr(merged, name, value)
        for name in cls._MERGE_ALL:
            setattr(merged, name, all(getattr(p, name) for p in parts))
        for name in cls._MERGE_ANY:
            setattr(merged, name, any(getattr(p, name) for p in parts))
        counters: Dict[str, Tuple[int, int]] = {}
        for part in parts:
            for key, (hits, misses) in part.isl_counters.items():
                have = counters.get(key, (0, 0))
                counters[key] = (have[0] + hits, have[1] + misses)
        merged.isl_counters = counters
        return merged

    def finish_isl(self, before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]) -> None:
        """Record isl memo hit/miss deltas between two snapshots."""
        self.isl_counters = {
            name: (
                after[name][0] - before.get(name, (0, 0))[0],
                after[name][1] - before.get(name, (0, 0))[1],
            )
            for name in after
        }

    def summary(self) -> str:
        """The counters as a human-readable block; the span profile
        times the sweep."""

        def rate(hits: int, misses: int) -> str:
            total = hits + misses
            if not total:
                return "-"
            return f"{100.0 * hits / total:.0f}%"

        lines = [
            f"dse profile (cache {'on' if self.cache_enabled else 'off'}):",
            f"  evaluations        {self.evaluations}",
            f"  lowerings          {self.lowerings}"
            f" (nests lowered: {self.group_lowerings})",
            f"  estimations        {self.estimations}",
            f"  quarantined        {self.quarantined}"
            f" (estimator retries: {self.estimator_retries},"
            f" retry backoff {self.retry_backoff_s * 1e3:.1f} ms,"
            f" timeouts: {self.timeouts})",
            f"  replayed           {self.replayed}"
            f" (from checkpoint journal)",
        ]
        if self.pareto_candidates:
            lines.append(
                f"  pareto             {self.frontier_size} frontier designs"
                f" ({self.pareto_evaluated} estimated,"
                f" {self.surrogate_skips} memo-answered"
                f" of {self.pareto_candidates} grid candidates)"
            )
        lines += [
            "  cache layer            hits   misses   hit-rate",
            f"    nest lowering      {self.lowering_cache_hits:6d} {self.lowering_cache_misses:8d}"
            f"   {rate(self.lowering_cache_hits, self.lowering_cache_misses):>8}",
            f"    report             {self.report_hits:6d} {self.report_misses:8d}"
            f"   {rate(self.report_hits, self.report_misses):>8}",
            f"    node config        {self.config_cache_hits:6d} {self.config_cache_misses:8d}"
            f"   {rate(self.config_cache_hits, self.config_cache_misses):>8}",
            f"    statement          {self.statement_cache_hits:6d} {self.statement_cache_misses:8d}"
            f"   {rate(self.statement_cache_hits, self.statement_cache_misses):>8}",
        ]
        for name, (hits, misses) in sorted(self.isl_counters.items()):
            lines.append(
                f"    isl {name:<14} {hits:6d} {misses:8d}   {rate(hits, misses):>8}"
            )
        return "\n".join(lines)
