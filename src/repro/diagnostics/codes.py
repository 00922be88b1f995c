"""The error-code registry.

Every diagnostic the framework emits carries one of these stable codes
so tests, logs, and the DSE quarantine can match on *what* failed
instead of parsing message strings.  Codes group by layer:

* ``DSL0xx`` -- algorithm specification (compute declarations);
* ``SCH0xx`` -- schedule directives (parameters, application);
* ``LEG0xx`` -- schedule-legality preflight (dependence violations);
* ``VER0xx`` -- affine IR structural verifier;
* ``ISL0xx`` -- polyhedral substrate resource bounds;
* ``DSE0xx`` -- design space exploration fault handling;
* ``RPT0xx`` -- evaluation harness;
* ``FUZ0xx`` -- schedule fuzzing (differential harness);
* ``WLD0xx`` -- workload registry lookups;
* ``DFL0xx`` -- task-level dataflow designs (FIFO pipelines);
* ``GEN0xx`` -- unclassified.

See ``docs/diagnostics.md`` for the full catalogue with examples.
"""

from __future__ import annotations

from typing import Dict

CODES: Dict[str, str] = {
    # -- DSL (algorithm specification) ----------------------------------
    "DSL001": "invalid compute or iterator declaration",
    "DSL002": "compute declares no iterators",
    "DSL003": "compute declares duplicate iterators",
    "DSL004": "statement references undeclared iterators",
    # -- schedule directives --------------------------------------------
    "SCH001": "directive parameter out of range (factor, offset, or target II)",
    "SCH002": "directive targets an unknown compute",
    "SCH003": "directive references an unknown loop level",
    "SCH004": "directive introduces a loop name that is already in use",
    "SCH005": "directive could not be applied to the polyhedral IR",
    # -- schedule-legality preflight ------------------------------------
    "LEG001": "loop reordering would violate a loop-carried dependence",
    "LEG002": "loop reversal would violate a loop-carried dependence",
    "LEG003": "loop skew cannot be proven legal",
    "LEG004": "fusion would read values before they are produced",
    "LEG005": "pipelined loop carries a dependence (target II may be unachievable)",
    # -- affine IR verifier ---------------------------------------------
    "VER001": "duplicate or shadowed loop iterator",
    "VER002": "load/store rank does not match the array shape",
    "VER003": "expression references an iterator that is not live",
    "VER004": "malformed HLS pragma attribute",
    "VER005": "malformed op or region structure",
    "VER006": "degenerate loop bounds",
    # -- polyhedral substrate --------------------------------------------
    "ISL001": "Fourier-Motzkin elimination step exceeds the working-set bound",
    # -- design space exploration ---------------------------------------
    "DSE001": "design-point candidate quarantined",
    "DSE002": "estimator failed after bounded retries",
    "DSE003": "candidate evaluation exceeded its time budget (timeout quarantine)",
    "DSE004": "sweep wall-clock budget exhausted; degraded to best design found",
    "DSE005": "checkpoint journal rejected (missing, unreadable, or stale header)",
    "DSE006": "corrupt or truncated checkpoint journal line skipped",
    "DSE007": "sweep interrupted; stopped at best design found (checkpoint flushed)",
    # DSE008 is retired; the number is not reused.
    "DSE009": "returned design exceeds the resource budget",
    # -- evaluation harness ---------------------------------------------
    "RPT001": "experiment failed during evaluation",
    "RPT002": "a paper claim does not hold on the experiment's result",
    # -- tracing and metrics ---------------------------------------------
    "TRC001": "trace output could not be written; run completed without it",
    # -- schedule fuzzing -------------------------------------------------
    "FUZ001": "differential mismatch between compiled simulation and DSL reference",
    "FUZ002": "fuzz trial crashed before the differential comparison",
    "FUZ003": "minimized fuzz reproducer script written",
    "FUZ004": "fuzz time budget exhausted before requested trials completed",
    # -- compile server ---------------------------------------------------
    "SRV001": "invalid serve request rejected before queueing",
    "SRV002": "job queue at capacity; request rejected with retry-after",
    "SRV003": "job exceeded its wall-clock budget and was stopped",
    "SRV004": "worker process died; job retried with backoff (faults disarmed)",
    "SRV005": "corrupt result-store entry skipped during load",
    "SRV006": "server draining; in-flight jobs checkpointed for restart",
    "SRV007": "unfinished job recovered from the ledger and re-queued",
    # -- workload registry -------------------------------------------------
    "WLD001": "unknown workload name (not in the registry)",
    "WLD002": "workload cannot be built at the requested size",
    # -- task-level dataflow designs ---------------------------------------
    "DFL001": "stream edge references an unknown stage",
    "DFL002": "stream array is not written by its producer stage or "
              "not read by its consumer stage",
    "DFL003": "stream endpoints disagree on array shape or element type",
    "DFL004": "dataflow graph contains a cycle",
    "DFL005": "stream array must have exactly one producer and one consumer",
    "DFL006": "consumer reads outside the producer's write footprint "
              "(reads the zero-initialized border)",
    "DFL007": "FIFO depth below the deadlock-free minimum for the "
              "consumer's read window",
    "DFL008": "stages share an array with no stream edge declared",
    # -- fallback --------------------------------------------------------
    "GEN001": "unclassified error",
}


def describe(code: str) -> str:
    """The one-line description of a registered error code."""
    try:
        return CODES[code]
    except KeyError:
        raise KeyError(f"unknown diagnostic code {code!r}") from None
