"""Sharded DSE sweeps: one full ``auto_dse`` sweep per worker process.

:func:`run_sharded_sweep` preserves the engine's determinism guarantee
(a parallel run is bit-identical to a sequential one).  Shards share
nothing at runtime -- each gets its own checkpoint journal, its own
estimator/isl memo tables (process-local), and its own quarantine --
and the driver merges :class:`~repro.dse.stats.DseStats`, diagnostics,
and quarantine records *in shard declaration order*, so the merged
artifacts do not depend on which worker finished first.  A worker that
dies mid-shard (a real crash or an injected one) loses only that shard;
the driver retries it in-process, resuming from the shard's journal
when one was being written.

A single sweep is never split across processes: the ladder is
sequential by construction and a sweep is shorter than a pool start-up
(``docs/performance.md`` records the measurement).

Memo isolation: every memo layer involved is process-local -- the
estimator's report memo is per-:class:`~repro.hls.estimator.HlsEstimator`
instance, and the global isl tables (:mod:`repro.isl.memo`) are
per-process module state -- so workers never share or corrupt each
other's caches, and a worker's warm cache cannot change results (memoized
and unmemoized runs are bit-identical by construction).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import Diagnostic
from repro.dse.engine import DseResult, QuarantinedCandidate, auto_dse
from repro.dse.options import DseOptions
from repro.dse.stats import DseStats
from repro import trace as _trace
from repro.util.pool import available_jobs, run_ordered

# The default sweep `repro dse --all` and the parallel benchmark run:
# the paper's Table III polybench workloads.
DEFAULT_SWEEP: Tuple[str, ...] = ("gemm", "bicg", "gesummv", "2mm")


def build_workload(name: str, size: Optional[int] = None):
    """Instantiate a registered workload by name (picklable entry point).

    Worker processes rebuild their shard's function from ``(name, size)``
    rather than receiving a live object, so a shard task stays tiny and
    start-method agnostic.  Delegates to the workload registry; an
    unknown name raises the registry's stable ``WLD001`` diagnostic
    (a :class:`ValueError` subclass, so existing handlers still match).
    """
    from repro import workloads

    return workloads.get(name, size)


@dataclass
class ShardSpec:
    """One workload's sweep in a sharded run (picklable task payload)."""

    workload: str
    size: Optional[int] = None
    checkpoint: Optional[str] = None
    resume: bool = False
    device: Optional[str] = None  # zoo name, e.g. "xczu9eg@50%" (picklable)
    resource_fraction: float = 1.0
    clock_ns: Optional[float] = None  # None = the device's own clock
    cache: bool = True
    candidate_timeout_s: Optional[float] = None
    time_budget_s: Optional[float] = None
    fault_plan: Optional[object] = None
    trace: bool = False  # record a worker-side trace, shipped on the result
    objective: str = "single"  # objective spec (repro.dse.pareto)

    def to_options(self) -> DseOptions:
        """This shard's engine configuration as one :class:`DseOptions`.

        The device travels as its registry *name* (shard specs must be
        picklable and journal-friendly); it resolves here, on whichever
        side of the process boundary runs the shard.
        """
        from repro.hls.device import get_device

        return DseOptions(
            device=get_device(self.device) if self.device else None,
            resource_fraction=self.resource_fraction,
            clock_ns=self.clock_ns,
            cache=self.cache,
            checkpoint=self.checkpoint,
            resume=self.resume,
            candidate_timeout_s=self.candidate_timeout_s,
            time_budget_s=self.time_budget_s,
            fault_plan=self.fault_plan,
            objective=self.objective,
        )

    @property
    def label(self) -> str:
        if self.size is not None:
            return f"{self.workload}({self.size})"
        return self.workload


@dataclass
class ShardResult:
    """One shard's outcome after any crash-retry."""

    spec: ShardSpec
    result: Optional[DseResult] = None
    error: Optional[str] = None
    crashed: bool = False
    retried: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepResult:
    """A sharded sweep's deterministic merge, in shard declaration order."""

    shards: List[ShardResult]
    stats: DseStats
    quarantine: List[Tuple[str, QuarantinedCandidate]]
    diagnostics: List[Tuple[str, Diagnostic]]

    @property
    def ok(self) -> bool:
        return all(shard.ok for shard in self.shards)

    @property
    def failures(self) -> List[ShardResult]:
        return [shard for shard in self.shards if not shard.ok]

    def results(self) -> Dict[str, DseResult]:
        """Successful per-workload results keyed by shard label."""
        return {s.spec.label: s.result for s in self.shards if s.ok}


def _run_shard(spec: ShardSpec) -> DseResult:
    """Run one shard's full sweep (worker-process entry point).

    With ``spec.trace`` the sweep runs under a fresh local tracer (never
    the driver's fork-inherited one) and ships its spans/metrics back on
    ``DseResult.trace`` for deterministic adoption by the driver.
    """
    function = build_workload(spec.workload, spec.size)
    options = spec.to_options()
    if not spec.trace:
        return auto_dse(function, options=options)
    tracer = _trace.Tracer()
    previous = _trace.install(tracer)
    try:
        result = auto_dse(function, options=options)
    finally:
        _trace.install(previous)
    result.trace = tracer.export_data()
    return result


def shard_journal_path(directory: str, spec: ShardSpec) -> str:
    """The per-shard journal file inside a sweep's checkpoint directory.

    Layout: ``<directory>/<workload>[-<size>].journal`` -- one journal
    per shard, so a crashed shard resumes from exactly its own records
    and shards never contend for one file.
    """
    stem = spec.workload
    if spec.size is not None:
        stem += f"-{spec.size}"
    return os.path.join(directory, f"{stem}.journal")


def run_sharded_sweep(
    specs: List[ShardSpec],
    jobs: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    retry_crashed: bool = True,
) -> SweepResult:
    """Run each shard's sweep in a worker process; merge deterministically.

    ``checkpoint_dir`` gives every shard its own journal (see
    :func:`shard_journal_path`), created if missing.  A shard whose
    worker *crashes* (rather than raising) is retried once in the
    driver process with ``resume=True`` against its journal -- injected
    fault plans are stripped for the retry, matching the resilience
    contract that a faulty run retried converges to the fault-free
    result.  Results, stats, quarantine records, and diagnostics merge
    in ``specs`` order regardless of completion order.
    """
    if jobs is None:
        jobs = min(len(specs), available_jobs()) or 1
    specs = list(specs)
    if _trace.enabled():
        # The driver traces: have every shard record a worker-side trace
        # so the merged timeline shows one named track per shard.
        specs = [
            spec if spec.trace else replace(spec, trace=True) for spec in specs
        ]
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        specs = [
            replace(spec, checkpoint=shard_journal_path(checkpoint_dir, spec))
            if spec.checkpoint is None
            else spec
            for spec in specs
        ]

    outcomes = run_ordered(_run_shard, specs, jobs)
    shards: List[ShardResult] = []
    for spec, outcome in zip(specs, outcomes):
        if outcome.ok:
            shards.append(ShardResult(spec, result=outcome.value))
            continue
        if outcome.crashed and retry_crashed:
            # The worker died without reporting.  Its journal (when one
            # was being written) survives with every completed candidate;
            # resume from it in the driver, without the fault plan that
            # (in tests) killed the worker.
            retry = replace(
                spec,
                resume=spec.checkpoint is not None,
                fault_plan=None,
            )
            try:
                result = _run_shard(retry)
            except Exception as exc:
                shards.append(
                    ShardResult(
                        spec,
                        error=f"retry failed: {type(exc).__name__}: {exc}",
                        crashed=True,
                        retried=True,
                    )
                )
                continue
            shards.append(
                ShardResult(spec, result=result, crashed=True, retried=True)
            )
            continue
        shards.append(
            ShardResult(spec, error=outcome.error, crashed=outcome.crashed)
        )

    tracer = _trace.active()
    if tracer is not None:
        # Adopt worker traces in shard declaration order -- each shard
        # becomes its own named track -- so the merged trace does not
        # depend on which worker finished first.
        for tid, shard in enumerate(shards, start=1):
            if shard.ok and shard.result.trace is not None:
                tracer.adopt_thread(
                    shard.result.trace, tid, f"shard {shard.spec.label}"
                )

    merged_stats = DseStats.merge(
        [shard.result.stats for shard in shards if shard.ok and shard.result.stats]
    )
    quarantine: List[Tuple[str, QuarantinedCandidate]] = []
    diagnostics: List[Tuple[str, Diagnostic]] = []
    for shard in shards:
        if not shard.ok:
            continue
        for candidate in shard.result.quarantine:
            quarantine.append((shard.spec.label, candidate))
        for diagnostic in shard.result.diagnostics:
            diagnostics.append((shard.spec.label, diagnostic))
    return SweepResult(
        shards=shards,
        stats=merged_stats,
        quarantine=quarantine,
        diagnostics=diagnostics,
    )


def default_sweep_specs(
    size: Optional[int] = None, **kwargs
) -> List[ShardSpec]:
    """ShardSpecs for the standard 4-workload polybench sweep."""
    return [ShardSpec(workload=name, size=size, **kwargs) for name in DEFAULT_SWEEP]
