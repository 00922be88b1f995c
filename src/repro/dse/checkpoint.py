"""Checkpointed, resumable DSE sweeps: the append-only candidate journal.

A sweep run with ``auto_dse(checkpoint=path)`` journals every candidate
it really evaluates to a JSON-lines file: one header line identifying
the run (workload fingerprint, device, search parameters, engine
version), then one ``eval`` record per scored or quarantined candidate,
and in the frontier modes one ``frontier`` record at the end.  Appends
are single ``write`` calls flushed and fsynced, so a killed process
loses at most the line being written -- and a truncated trailing line
is tolerated on resume.

``auto_dse(checkpoint=path, resume=True)`` validates the header against
the current run (a stale or mismatched journal is rejected with
``DSE005`` instead of silently mixing results), loads the surviving
records, and re-runs the deterministic search with the journal acting as
a pre-warmed evaluation cache: successful candidates replay instantly,
quarantined candidates are *retried* (their failure may have been a
transient machine condition -- and retrying is what makes a faulty run
converge to the fault-free result), and unreadable lines are skipped
with a ``DSE006`` warning.  Because the search trajectory is a pure
function of the per-candidate scores, a resumed sweep lands on the same
best design an uninterrupted run would have found.  A replayed design
the search needs lowered -- the best one, for its bottleneck analysis
and for the result -- is realized again: its per-node latencies are
recomputed, not journaled.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from repro import __version__ as _REPRO_VERSION
from repro.diagnostics import DiagnosticEngine, DiagnosticError, SourceLocation
from repro.hls.device import FPGADevice
from repro.hls.report import Resources, SynthesisReport
from repro.util.atomic import append_line

# Bump whenever the search trajectory semantics change (step policy,
# bank-cap ladder, scoring): journals written by a different engine
# version must not be mixed into a new sweep.
ENGINE_VERSION = 1

FORMAT_VERSION = 2


def candidate_key(parallelism: Dict[str, int], bank_cap: int) -> str:
    """The canonical journal key of one design-point candidate."""
    nodes = ",".join(f"{name}={parallelism[name]}" for name in sorted(parallelism))
    return f"cap={bank_cap}|{nodes}"


def workload_fingerprint(function) -> str:
    """A structural digest of the workload a sweep explores.

    Covers the algorithm (computes: iterators with ranges, expression,
    destination), the arrays (shape, dtype, baseline partitioning), and
    the directives the search builds upon (structural after/fuse).
    Anything that changes the search space changes the digest, so a
    checkpoint from a different workload -- or a resized one -- is
    rejected at resume.
    """
    parts = [f"function {function.name}"]
    for placeholder in function.placeholders():
        parts.append(
            f"array {placeholder.name} shape={tuple(placeholder.shape)} "
            f"dtype={placeholder.dtype} partition={placeholder.partition_scheme}"
        )
    for compute in function.computes:
        iters = ",".join(
            f"{it.name}[{it.lo}:{it.hi}]" for it in compute.iters
        )
        parts.append(
            f"compute {compute.name} ({iters}) {compute.dest!r} = {compute.expr!r}"
        )
    for directive in function.structural_directives():
        parts.append(f"directive {directive.fingerprint()}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def make_header(
    function,
    device: FPGADevice,
    resource_fraction: float,
    clock_ns: float,
    max_parallelism: int,
) -> Dict[str, object]:
    """The identity record a journal must match to be resumable."""
    return {
        "kind": "header",
        "format": FORMAT_VERSION,
        "engine_version": ENGINE_VERSION,
        "repro_version": _REPRO_VERSION,
        "function": function.name,
        "workload_fp": workload_fingerprint(function),
        "device": device.name,
        "clock_ns": clock_ns,
        "resource_fraction": resource_fraction,
        "max_parallelism": max_parallelism,
    }


def _reject(path: str, reason: str, notes=()) -> DiagnosticError:
    return DiagnosticError(
        f"checkpoint journal {path!r} rejected: {reason}",
        code="DSE005",
        location=SourceLocation(file=path),
        notes=notes,
    )


class CheckpointJournal:
    """The append-only JSON-lines journal of one (possibly resumed) sweep.

    Use :meth:`create` for a fresh sweep (truncates and writes the
    header) or :meth:`resume` to load surviving records and continue.
    ``fault_plan`` is the injection hook: when installed, each eval line
    passes through ``plan.on_journal_line`` (which may corrupt it) --
    the production write path is what the chaos suite exercises.
    """

    def __init__(self, path: str, header: Dict[str, object], handle, fault_plan=None):
        self.path = path
        self.header = header
        self._handle = handle
        self._fault_plan = fault_plan
        self._evals: Dict[str, dict] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, header: Dict[str, object], fault_plan=None
    ) -> "CheckpointJournal":
        try:
            handle = open(path, "w+b")
        except OSError as exc:
            raise _reject(path, f"cannot create journal: {exc}") from exc
        journal = cls(path, header, handle, fault_plan)
        try:
            journal._write_line(json.dumps(header, sort_keys=True))
        except BaseException:
            # A journal whose header never reached the disk is unusable
            # (resume would reject it anyway): never leave it behind
            # open or half-written.
            journal.discard()
            raise
        return journal

    @classmethod
    def resume(
        cls,
        path: str,
        header: Dict[str, object],
        engine: Optional[DiagnosticEngine] = None,
        fault_plan=None,
    ) -> "CheckpointJournal":
        """Validate ``path`` against ``header``, load records, reopen append.

        Raises :class:`DiagnosticError` (``DSE005``) when the file is
        missing, its header line is unreadable, or the header does not
        match the current run.  Unreadable *record* lines (a mid-write
        crash, disk corruption) are skipped with a ``DSE006`` warning
        emitted into ``engine``.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise _reject(path, f"cannot read journal: {exc}") from exc
        if not lines:
            raise _reject(path, "journal is empty (no header line)")
        try:
            found = json.loads(lines[0])
            if not isinstance(found, dict) or found.get("kind") != "header":
                raise ValueError("first line is not a header record")
        except ValueError as exc:
            raise _reject(path, f"unreadable header line: {exc}") from exc
        mismatched = sorted(
            key
            for key in set(header) | set(found)
            if header.get(key) != found.get(key)
        )
        if mismatched:
            notes = tuple(
                f"{key}: journal has {found.get(key)!r}, this run has "
                f"{header.get(key)!r}"
                for key in mismatched
            )
            raise _reject(
                path,
                "header mismatch (stale or foreign checkpoint); fields: "
                + ", ".join(mismatched),
                notes=notes,
            )

        handle = open(path, "a+b")
        journal = cls(path, header, handle, fault_plan)
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                kind = record["kind"]
                if kind == "eval":
                    journal._absorb_eval(record["key"], record)
                elif kind not in ("header", "frontier"):
                    raise ValueError(f"unknown record kind {kind!r}")
            except (ValueError, KeyError, TypeError) as exc:
                if engine is not None:
                    engine.warning(
                        "DSE006",
                        f"skipping corrupt journal line {number}: {exc}",
                        location=SourceLocation(file=path, line=number),
                    )
        return journal

    def _absorb_eval(self, key: str, record: dict) -> None:
        if not record["ok"]:
            # Quarantine records never shadow a successful score, and are
            # not replayed on resume (the candidate is retried): they are
            # kept for reporting only.
            record.setdefault("code", "DSE001")
            if key in self._evals and self._evals[key]["ok"]:
                return
        else:
            # Validate the fields replay will need, so a mangled record
            # surfaces as a skipped line instead of a broken replay.
            for field_name in ("cycles", "dsp", "lut", "ff"):
                record[field_name] = int(record[field_name])
        self._evals[key] = record

    # -- appends ------------------------------------------------------------

    def _write_line(self, payload: str) -> None:
        append_line(self._handle, payload + "\n")

    def append_eval(
        self,
        ordinal: int,
        key: str,
        parallelism: Dict[str, int],
        bank_cap: int,
        *,
        report: Optional[SynthesisReport] = None,
        code: Optional[str] = None,
        message: Optional[str] = None,
        elapsed_s: Optional[float] = None,
    ) -> None:
        """Journal one really-evaluated candidate (score or quarantine)."""
        record: Dict[str, object] = {
            "kind": "eval",
            "n": ordinal,
            "key": key,
            "par": {name: parallelism[name] for name in sorted(parallelism)},
            "bank_cap": bank_cap,
            "ok": report is not None,
        }
        if elapsed_s is not None:
            record["elapsed_s"] = round(elapsed_s, 6)
        if report is not None:
            record.update(
                cycles=report.total_cycles,
                dsp=report.resources.dsp,
                lut=report.resources.lut,
                ff=report.resources.ff,
                bram_bits=report.resources.bram_bits,
                power_w=report.power_w,
            )
        else:
            record["code"] = code or "DSE001"
            record["message"] = message or ""
        self._absorb_eval(key, dict(record))
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._fault_plan is not None:
            # The hook returns the raw on-disk payload (a corrupt fault
            # truncates it, newline included); the next append
            # terminates the torn line.
            line = self._fault_plan.on_journal_line(ordinal, line)
        append_line(self._handle, line)
        if self._fault_plan is not None:
            # A "crash" fault kills the process right after this append
            # reaches the disk -- the resume path must reconstruct the
            # sweep from exactly what was durably written.
            self._fault_plan.after_journal_append(ordinal)

    def append_frontier(self, objective: str, points) -> None:
        """Journal the published Pareto frontier of one sweep.

        ``points`` is a sequence of JSON-safe records
        (:meth:`repro.dse.pareto.ParetoPoint.to_record`).  Enrichment
        evaluations are journaled as ordinary ``eval`` records, so a
        resumed sweep reconstructs the same frontier from replays; this
        record makes the published frontier directly inspectable.
        """
        record = {
            "kind": "frontier",
            "objective": objective,
            "points": list(points),
        }
        self._write_line(json.dumps(record, sort_keys=True))

    # -- replay -------------------------------------------------------------

    def replay(self, key: str) -> Optional[dict]:
        """The journaled *successful* record for ``key``, if any."""
        record = self._evals.get(key)
        if record is not None and record["ok"]:
            return record
        return None

    def report_from(
        self, record: dict, function_name: str, device: FPGADevice, clock_ns: float
    ) -> SynthesisReport:
        """Rebuild the scoring-relevant view of a journaled report.

        Only the fields the search decisions consume are journaled
        (cycles and resources); the loop table is not.  The final best
        design is always re-lowered and re-estimated for real, so the
        ``DseResult`` the caller receives carries a full report.
        """
        return SynthesisReport(
            function_name=function_name,
            device=device,
            clock_ns=clock_ns,
            total_cycles=int(record["cycles"]),
            resources=Resources(
                dsp=int(record["dsp"]),
                lut=int(record["lut"]),
                ff=int(record["ff"]),
                bram_bits=int(record.get("bram_bits", 0)),
            ),
            loops=[],
            power_w=float(record.get("power_w", 0.0)),
        )

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def discard(self) -> None:
        """Close the journal and remove its file (an unusable journal)."""
        self.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass
