"""The parallel DSE execution layer: sharded sweeps + speculation.

Two independent mechanisms, both preserving the engine's determinism
guarantee (parallel runs are bit-identical to sequential runs):

* **Sharded sweeps** (:func:`run_sharded_sweep`) run one full
  ``auto_dse`` sweep per workload in its own worker process.  Shards
  share nothing at runtime -- each gets its own checkpoint journal,
  its own estimator/isl memo tables (process-local), and its own
  quarantine -- and the driver merges :class:`~repro.dse.stats.DseStats`,
  diagnostics, and quarantine records *in shard declaration order*, so
  the merged artifacts do not depend on which worker finished first.
  A worker that dies mid-shard (a real crash or an injected one) loses
  only that shard; the driver retries it in-process, resuming from the
  shard's journal when one was being written.

* **Speculative candidate evaluation** (:class:`SpeculativeEvaluator`)
  accelerates a *single* sweep (``auto_dse(jobs=N)``).  The ladder
  search's trajectory is a pure function of per-candidate scores, so
  the engine predicts the next candidates it would evaluate (the
  bank-cap fallback ladder ``(128, 16, 8)`` of the next independent
  bottleneck-group trials), dispatches them to persistent worker
  processes ahead of time, and *commits* the scores strictly in
  sequential visit order.  Each worker builds the search's own
  :class:`~repro.dse.evaluator.Evaluator` on its copy of the function
  and scores candidates through it -- the one pipeline, not a replica --
  shipping back a picklable :class:`SpeculativeOutcome` (a score or a
  structured diagnostic).
  A lost or mispredicted speculation costs only worker time: the
  engine falls back to evaluating locally whenever the pool cannot
  deliver (see :meth:`~repro.util.pool.WorkerPool.result`).

Memo isolation: every memo layer involved is process-local -- the
estimator's report memo is per-:class:`~repro.hls.estimator.HlsEstimator`
instance, and the global isl tables (:mod:`repro.isl.memo`) are
per-process module state -- so workers never share or corrupt each
other's caches, and a worker's warm cache cannot change results (memoized
and unmemoized runs are bit-identical by construction).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import Diagnostic
from repro.dse.checkpoint import candidate_key
from repro.dse.engine import DseResult, QuarantinedCandidate, auto_dse
from repro.dse.evaluator import Evaluator
from repro.dse.options import DseOptions
from repro.dse.stats import DseStats
from repro import trace as _trace
from repro.util.pool import WorkerPool, available_jobs, run_ordered

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


# -- speculative candidate evaluation ----------------------------------------


@dataclass
class SpeculativeOutcome:
    """One worker-evaluated candidate: a score or a structured failure.

    Mirrors the two terminal states of the engine's local evaluation --
    ``ok`` carries the :class:`SynthesisReport` the sequential search
    would have computed; a failure carries the :class:`Diagnostic` the
    sequential search would have quarantined (``elapsed_s`` preserves
    DSE003 watchdog accounting).  Everything here is picklable.
    """

    ok: bool
    report: Optional[object] = None
    diagnostic: Optional[Diagnostic] = None
    elapsed_s: Optional[float] = None
    #: Worker-side spans/metrics (when the driver traces); grafted under
    #: the committing candidate's span in sequential commit order.
    trace: Optional[_trace.TraceData] = None


def _spec_init(function, evaluator_options: dict, trace: bool) -> Tuple[Evaluator, bool]:
    """Worker initializer: build the search's evaluator once.

    Runs in the worker process on its own copy of the function (forked
    or unpickled before the parent's search mutates it).  The evaluator
    is the one the sequential search uses, minus the sweep-level
    plumbing (no journal, no sweep deadline, private stats).
    """
    # A forked worker inherits the driver's active tracer object; it
    # must never record into that orphaned copy.  Per-candidate tracing
    # (when requested) uses a fresh local tracer in _spec_eval.
    _trace.install(None)
    return Evaluator(function, **evaluator_options), trace


def _spec_eval(state: Tuple[Evaluator, bool], payload) -> SpeculativeOutcome:
    """Evaluate one ``(parallelism, bank_cap)`` candidate in a worker.

    Produces the report -- or the diagnostic -- the sequential search
    would have, by construction: both call :meth:`Evaluator.realize`
    under :meth:`Evaluator.watchdog`.  When the driver traces, the
    candidate's spans are captured into a local tracer and shipped back
    on the outcome.
    """
    evaluator, traced = state
    par, bank_cap = payload
    tracer = _trace.Tracer() if traced else None
    previous = _trace.install(tracer)
    t0 = time.perf_counter()
    try:
        configs = evaluator.configs(par)
        with evaluator.watchdog():
            report, _ = evaluator.realize(configs, bank_cap)
        outcome = SpeculativeOutcome(
            ok=True, report=report, elapsed_s=time.perf_counter() - t0
        )
    except Exception as exc:
        outcome = SpeculativeOutcome(
            ok=False,
            diagnostic=evaluator.diagnostic_of(exc),
            elapsed_s=getattr(exc, "elapsed_s", None),
        )
    finally:
        _trace.install(previous)
    if tracer is not None:
        outcome.trace = tracer.export_data()
    return outcome


class SpeculativeEvaluator:
    """Persistent worker pool pre-evaluating predicted candidates.

    Constructed by ``auto_dse(jobs=N)`` before the search mutates the
    function: workers capture the pristine pre-search function and
    build their own evaluator on it (:func:`_spec_init`).  The
    engine then :meth:`prefetch`-es candidates its frontier simulation
    predicts, and :meth:`take`-s them at their sequential visit
    position.  ``take`` returns ``None`` for anything the pool cannot
    deliver -- never prefetched, worker died, pool broken -- and the
    engine evaluates locally; speculation can only lose speedup, never
    answers or determinism.
    """

    def __init__(self, function, jobs: int = 2, **evaluator_options):
        """``evaluator_options`` are the workers' :class:`Evaluator`
        keywords (device, clock_ns, keep_existing_schedule,
        candidate_timeout_s), passed through untouched."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        # How many independent bottleneck-group trials the engine's
        # frontier simulation looks ahead; each trial fans out into the
        # full bank-cap ladder, so `jobs` trials keep the pool busy.
        self.depth = max(2, jobs)
        self._tickets: Dict[str, int] = {}
        self._pool = WorkerPool(
            _spec_init, (function, evaluator_options, _trace.enabled()),
            _spec_eval, jobs,
        )

    def prefetch(self, parallelism: Dict[str, int], bank_cap: int) -> bool:
        """Queue one candidate for a worker; False if already queued/broken."""
        if self._pool.broken:
            return False
        key = candidate_key(parallelism, bank_cap)
        if key in self._tickets:
            return False
        self._tickets[key] = self._pool.submit((dict(parallelism), bank_cap))
        return True

    def take(self, parallelism: Dict[str, int], bank_cap: int):
        """The outcome for a prefetched candidate, or None to go local.

        Blocks until the worker finishes when the candidate is in
        flight -- the work is already paid for; waiting for it is never
        slower than redoing it locally.
        """
        key = candidate_key(parallelism, bank_cap)
        ticket = self._tickets.pop(key, None)
        if ticket is None:
            return None
        return self._pool.result(ticket)

    def close(self) -> None:
        self._pool.close()


# -- sharded sweeps ----------------------------------------------------------


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
    jobs: int = 1  # speculation inside this shard (auto_dse(jobs=...))
    trace: bool = False  # record a worker-side trace, shipped on the result
    objective: str = "single"  # objective spec (repro.dse.pareto)
    surrogate: bool = True  # frontier modes: allow provable-skip copies

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
            jobs=self.jobs if self.jobs > 1 else None,
            objective=self.objective,
            surrogate=self.surrogate,
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
