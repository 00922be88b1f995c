"""The engine's one context: the process state a compile runs under.

Four pieces of mutable state live in module globals, read on hot paths:
the isl memo tables (:mod:`repro.isl.memo`), the intern tables
(:mod:`repro.isl.intern`), the active tracer (:mod:`repro.trace`) and
the installed fault plan (:mod:`repro.faults`).  A
:class:`SessionContext` holds one value of each; :meth:`activate`
installs them for a block and restores the previous ones in reverse
order, so the hot paths keep reading one global (a disabled tracer is
still one load and a ``None`` test).

* A serve job runs in a fresh ``SessionContext()``: private empty
  tables, no tracer, no fault plan.
* :func:`repro.dse.engine.sweep` runs under :meth:`current` with a
  disabled memo context when ``cache=False`` and its own fault plan.
* An :class:`~repro.dse.evaluator.Evaluator` keeps the context it was
  built under and activates it around ``realize`` and ``install``, so
  one that outlives its sweep works in the mode it was built in.

Activation isolates sessions, not threads: at most one is active in a
process at a time, and nesting restores in order.  Memoized and
unmemoized runs are bit-identical, so fresh or disabled tables change
speed, never results.  The deadline (a nesting
:func:`~repro.util.deadline.deadline_scope`) and the isl / simulator
reference switches (process-wide environment modes) stay outside.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro import faults as _faults
from repro import trace as _trace
from repro.isl import intern as _intern
from repro.isl import memo as _memo

#: The innermost context :meth:`SessionContext.activate` installed.
_INNERMOST: Optional["SessionContext"] = None


@dataclass
class SessionContext:
    """One value of each piece of the engine's process state.

    ``SessionContext()`` is a fresh session: empty enabled tables, no
    tracer, no fault plan.  Cheap to construct; wrap a job in
    :meth:`activate`.
    """

    memo: _memo.MemoContext = field(default_factory=_memo.MemoContext)
    intern: _intern.InternContext = field(default_factory=_intern.InternContext)
    tracer: Optional[_trace.Tracer] = None
    fault_plan: Optional[_faults.FaultPlan] = None

    @classmethod
    def current(cls) -> "SessionContext":
        """The context active now."""
        return cls(_memo.active(), _intern.active(), _trace.active(), _faults.active())

    @contextmanager
    def activate(self):
        """Install this context's four fields around a block.

        Activating the innermost active context again installs nothing:
        a sweep's evaluator scores its candidates inside the sweep's own
        activation of the same context.
        """
        global _INNERMOST
        if _INNERMOST is self:
            yield self
            return
        outer = _INNERMOST
        previous_memo = _memo.activate(self.memo)
        previous_intern = _intern.activate(self.intern)
        previous_tracer = _trace.install(self.tracer)
        previous_plan = _faults.install(self.fault_plan)
        _INNERMOST = self
        try:
            yield self
        finally:
            _INNERMOST = outer
            _faults.install(previous_plan)
            _trace.install(previous_tracer)
            _intern.activate(previous_intern)
            _memo.activate(previous_memo)
