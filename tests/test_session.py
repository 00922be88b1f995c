"""SessionContext contract: install, restore, isolate, and never change results."""

import pytest

from repro import faults as _faults
from repro import trace as _trace
from repro import workloads
from repro.dse import auto_dse
from repro.faults import Fault, FaultPlan
from repro.isl import intern as _intern
from repro.isl import memo as _memo
from repro.serve import SessionContext
from repro.serve.jobs import design_fingerprint, dse_design_payload

pytestmark = pytest.mark.serve


class TestActivation:
    def test_installs_private_tables_and_restores(self):
        base = SessionContext.current()
        plan = FaultPlan([Fault("transient", 0)])
        session = SessionContext()
        assert session.tracer is None and session.fault_plan is None
        with _trace.tracing(), SessionContext(fault_plan=plan).activate():
            assert _faults.active() is plan
            outer = SessionContext.current()
            with session.activate():
                assert SessionContext.current() == session
                assert _memo.active() is not base.memo
                assert _intern.active() is not base.intern
                # A fresh session starts with no tracer and no fault plan.
                assert _trace.active() is None
                assert _faults.active() is None
            assert SessionContext.current() == outer
        assert SessionContext.current() == base

    def test_nested_sessions_restore_in_order(self):
        base = _memo.active()
        outer, inner = SessionContext(), SessionContext()
        with outer.activate():
            with inner.activate():
                assert _memo.active() is inner.memo
                # Activating the innermost context again is a no-op.
                with inner.activate():
                    pass
                assert SessionContext.current() == inner
            assert _memo.active() is outer.memo
            with inner.activate():
                assert _memo.active() is inner.memo
            assert SessionContext.current() == outer
        assert _memo.active() is base

    def test_exception_still_restores(self):
        base_memo = _memo.active()
        base_intern = _intern.active()
        with pytest.raises(RuntimeError):
            with SessionContext().activate():
                raise RuntimeError("boom")
        assert _memo.active() is base_memo
        assert _intern.active() is base_intern

    def test_session_tracer_installed(self):
        tracer = _trace.Tracer()
        session = SessionContext(tracer=tracer)
        with session.activate():
            assert _trace.active() is tracer
        assert _trace.active() is not tracer


class TestIsolation:
    def test_compile_populates_session_not_global_tables(self):
        base = _memo.active()
        before = base.stats_snapshot()
        session = SessionContext()
        with session.activate():
            function = workloads.get("gemm", 32)
            function.lower()
            function.estimate()
        # Everything the compile memoized landed in the session's tables.
        session_totals = sum(
            hits + misses
            for hits, misses in session.memo.stats_snapshot().values()
        )
        assert session_totals > 0
        assert base.stats_snapshot() == before
        assert sum(session.intern.stats().values()) > 0

    def test_two_sessions_do_not_share_tables(self):
        a, b = SessionContext(), SessionContext()
        with a.activate():
            workloads.get("gemm", 32).lower()
        with b.activate():
            assert sum(
                h + m for h, m in _memo.active().stats_snapshot().values()
            ) == 0


class TestBitIdentity:
    def test_fresh_session_dse_matches_global_context(self):
        """Fresh tables change speed, never results (the serve promise)."""
        name, size = "gemm", 48
        batch = auto_dse(workloads.get(name, size))
        with SessionContext().activate():
            served = auto_dse(workloads.get(name, size))
        assert design_fingerprint(
            dse_design_payload(batch, name, size)
        ) == design_fingerprint(dse_design_payload(served, name, size))
