"""Executing one op through the program's public functions.

``Session.execute`` is the timed part and returns whatever the program
returned; ``Session.describe`` runs after the clock stops and reduces
that to an :class:`Outcome` -- success, the design's cycles and
identity, and the work counts the program's own public objects report
(``DseResult.stats``, the op's ``SessionContext`` memo/intern tables,
serve job records).  Nothing here reaches into private state.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from oplist import Op
from paths import STATE_ROOT


@dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark reports."""

    ok: bool
    error: Optional[str] = None
    #: ``report.total_cycles`` of the chosen design (``interval_cycles``
    #: for dataflow designs); None where the op designs nothing.
    cycles: Optional[int] = None
    #: JSON-able identity of the design, compared across cache modes,
    #: passes and serve-vs-in-process.
    design: Any = None
    #: Work counts for the per-layer metrics, summed over ops (and, for a
    #: cold serve op, the worker's own engine seconds).
    counts: Dict[str, float] = field(default_factory=dict)
    #: The scheduled Function / DataflowDesign (dropped by the timed
    #: loop: too big to keep per op) and the emitted C, for the checks.
    artifact: Any = None
    c_text: Optional[str] = None


def _stats_counts(stats) -> Dict[str, float]:
    hits = (
        stats.eval_cache_hits + stats.design_cache_hits + stats.lowering_cache_hits
        + stats.report_hits + stats.config_cache_hits + stats.partition_cache_hits
    )
    misses = (
        stats.eval_cache_misses + stats.design_cache_misses + stats.lowering_cache_misses
        + stats.report_misses + stats.config_cache_misses + stats.partition_cache_misses
    )
    return {
        "dse.evaluations": stats.evaluations,
        "dse.lowerings": stats.lowerings,
        "dse.estimations": stats.estimations,
        "dse.cache_hits": hits,
        "dse.cache_lookups": hits + misses,
        "dse.pareto_evaluated": stats.pareto_evaluated,
        "dse.surrogate_skips": stats.surrogate_skips,
        "dse.frontier_size": stats.frontier_size,
    }


def _session_counts(session) -> Dict[str, float]:
    tables = session.memo.stats_snapshot()
    hits = sum(h for h, _ in tables.values())
    misses = sum(m for _, m in tables.values())
    atoms = session.intern.stats()
    return {
        "isl.memo_hits": hits,
        "isl.memo_lookups": hits + misses,
        # A projection-table miss is one Fourier-Motzkin elimination run.
        "isl.fm_eliminations": tables["projection"][1],
        "isl.intern_atoms": atoms["exprs"] + atoms["constraints"],
    }


def _degraded(result) -> Optional[str]:
    if result.quarantine:
        return f"{len(result.quarantine)} candidate(s) quarantined"
    stats = getattr(result, "stats", None)
    if stats is not None and (stats.time_budget_hit or stats.interrupted):
        return "sweep stopped early (time budget or interrupt)"
    return None


class Session:
    """Whatever outlives one op of a workload: the serve daemon and its
    client for ``serve_mix``, the one long-lived compiler session for
    ``fuzz_verify``, nothing for the rest (each of their ops gets a
    fresh ``SessionContext``: empty isl memo/intern tables, which is
    what every ``repro dse`` process and every serve worker sees)."""

    def __init__(self, workload: str):
        self.workload = workload
        self._server = None
        self._thread = None
        self._state_dir = None
        self._fuzz_session = None
        self.client = None

    def __enter__(self) -> "Session":
        if self.workload == "serve_mix":
            from repro.serve import ReproServer, ServeClient, ServeConfig

            os.makedirs(STATE_ROOT, exist_ok=True)
            self._state_dir = tempfile.mkdtemp(prefix="serve-", dir=STATE_ROOT)
            self._server = ReproServer(
                ServeConfig(port=0, workers=1, state_dir=self._state_dir)
            )
            port = self._server.start()
            self._thread = threading.Thread(
                target=self._server.serve_forever, name="bench-serve", daemon=True
            )
            self._thread.start()
            self.client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=120.0)
            if not self.client.wait_until_up():
                raise RuntimeError("serve_mix: the in-process server did not come up")
        elif self.workload == "fuzz_verify":
            from repro.serve import SessionContext

            self._fuzz_session = SessionContext()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._server is not None:
            try:
                self._server.shutdown()
                self._thread.join(timeout=30.0)
            finally:
                shutil.rmtree(self._state_dir, ignore_errors=True)

    # -- the timed part ------------------------------------------------

    def execute(self, op: Op):
        """Run one op; returns the program's raw answer for describe()."""
        from repro import workloads
        from repro.serve import SessionContext

        if op.kind == "serve":
            return self.client.run(
                kind="dse", workload=op.name, size=op.size,
                options={"resource_fraction": op.fraction}, timeout_s=120.0,
            )
        if op.kind == "fuzz":
            from repro.fuzz.harness import run_trial

            with self._fuzz_session.activate():
                return run_trial(op.name, op.size, op.arg)

        from repro.dse import DseOptions, auto_dse

        session = SessionContext()
        with session.activate():
            built = workloads.get(op.name, op.size)
            if op.kind == "dataflow":
                from repro.dataflow import auto_dse_dataflow

                result = auto_dse_dataflow(
                    built, options=DseOptions(resource_fraction=op.fraction)
                )
                return result, session, None
            if op.kind == "pareto":
                result = auto_dse(built, options=DseOptions(
                    resource_fraction=op.fraction, objective="pareto"))
                return result, session, None
            from repro.pipeline import compile_to_hls_c

            result = auto_dse(built, options=DseOptions(
                resource_fraction=op.fraction, cache=op.kind != "dse_nocache"))
            return result, session, compile_to_hls_c(result.function)

    # -- after the clock stops -------------------------------------------

    def describe(self, op: Op, raw) -> Outcome:
        if op.kind == "serve":
            return _describe_serve(raw)
        if op.kind == "fuzz":
            return Outcome(
                ok=raw.ok,
                error=None if raw.ok else f"{raw.kind} ({raw.oracle or raw.stage}): {raw.error}",
                counts={"fuzz.passed": 1.0 if raw.ok else 0.0, "fuzz.trials": 1.0},
            )
        result, session, c_text = raw
        counts = _session_counts(session)
        if op.kind == "dataflow":
            design = result.payload()
            for stage in result.stage_results.values():
                for key, value in _stats_counts(stage.stats).items():
                    counts[key] = counts.get(key, 0) + value
            counts["dataflow.stage_sweeps"] = len(result.stage_results)
            artifact = result.design
        else:
            from repro.serve.jobs import dse_design_payload

            design = dse_design_payload(result, op.name, op.size)
            counts.update(_stats_counts(result.stats))
            counts["polyir.directives"] = len(result.schedule)
            artifact = result.function
        if c_text is not None:
            counts["hlsgen.c_bytes"] = len(c_text)
        error = _degraded(result)
        return Outcome(
            ok=error is None, error=error, cycles=result.report.total_cycles,
            design=design, counts=counts, artifact=artifact, c_text=c_text,
        )


def _describe_serve(record: dict) -> Outcome:
    if record.get("status") != "done":
        return Outcome(ok=False, error=f"job ended {record.get('status')!r}")
    result = record["result"]
    cached = bool(record.get("cached"))
    counts = {"serve.requests": 1.0, "serve.cached": 1.0 if cached else 0.0}
    if not cached:
        counts["serve.engine_s"] = result["timing"]["wall_s"]
    search = result["search"]
    error = None
    if search["degraded"] or search["quarantine"]:
        error = f"degraded sweep (quarantine: {search['quarantine']})"
    return Outcome(
        ok=error is None, error=error, cycles=result["design"]["total_cycles"],
        design=result["design"], counts=counts,
    )


def in_process_design(op: Op):
    """The design an in-process sweep returns for a serve op's request."""
    from repro import workloads
    from repro.dse import DseOptions, auto_dse
    from repro.serve import SessionContext
    from repro.serve.jobs import dse_design_payload

    with SessionContext().activate():
        result = auto_dse(
            workloads.get(op.name, op.size),
            options=DseOptions(resource_fraction=op.fraction),
        )
        return dse_design_payload(result, op.name, op.size)
