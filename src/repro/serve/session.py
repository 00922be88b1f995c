"""Per-session isolation of the framework's process-global state.

The compiler keeps three pieces of mutable process state for speed:
the isl memo tables (:mod:`repro.isl.memo`), the hash-consing intern
tables (:mod:`repro.isl.intern`), and the active tracer
(:mod:`repro.trace`).  All three were designed with an ``activate()``
seam for exactly this module: a :class:`SessionContext` owns a private
copy of each and installs them for the duration of one request, so two
sessions compiling concurrently never read or write each other's
tables.

Activation swaps module-level globals, so it isolates *sessions*, not
*threads*: within one process, at most one session may be active at a
time.  The serve executor satisfies this by running one job at a time
in each worker subprocess, each under a fresh session activated and
restored around it; in-process callers (tests, the differential
harness) activate sessions sequentially.  Nesting is fine -- activation
restores the previous context on exit, in reverse order.

Since memoized and unmemoized runs are bit-identical by construction
(the memo/intern contracts), giving each session fresh tables can only
change speed, never results -- which is what lets the serve path promise
bit-identity with CLI batch mode.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Optional

from repro import trace as _trace
from repro.isl import intern as _intern
from repro.isl import memo as _memo

_SESSION_IDS = itertools.count(1)


class SessionContext:
    """One client session's private compiler state.

    Cheap to construct (empty tables); hold one per server session and
    wrap each of its jobs in :meth:`activate`.
    """

    def __init__(
        self,
        session_id: Optional[str] = None,
        tracer: Optional[_trace.Tracer] = None,
    ):
        self.session_id = session_id or f"session-{next(_SESSION_IDS)}"
        self.intern = _intern.InternContext()
        self.memo = _memo.MemoContext()
        self.tracer = tracer
        self.jobs_run = 0

    @contextmanager
    def activate(self):
        """Install this session's tables (and tracer) around a job."""
        previous_intern = _intern.activate(self.intern)
        previous_memo = _memo.activate(self.memo)
        previous_tracer = _trace.install(self.tracer)
        try:
            self.jobs_run += 1
            yield self
        finally:
            _trace.install(previous_tracer)
            _memo.activate(previous_memo)
            _intern.activate(previous_intern)

    def stats(self) -> dict:
        """Table sizes and memo hit rates, for ``/v1/status``."""
        return {
            "session": self.session_id,
            "jobs_run": self.jobs_run,
            "intern": self.intern.stats(),
            "memo": {
                name: {"hits": hits, "misses": misses}
                for name, (hits, misses) in self.memo.stats_snapshot().items()
            },
        }

    def __repr__(self):
        return f"SessionContext({self.session_id!r}, jobs_run={self.jobs_run})"
