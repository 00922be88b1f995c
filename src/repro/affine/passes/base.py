"""Pass infrastructure for the affine dialect.

Mirrors MLIR's pass manager in miniature: passes transform a
:class:`~repro.affine.ir.FuncOp` in place and report whether they
changed anything; the :class:`PassManager` runs a pipeline and can
iterate to a fixed point.  Like MLIR, the manager re-verifies the
function after every pass that changed it.
"""

from __future__ import annotations

from typing import List, Optional

from repro import trace as _trace
from repro.affine.ir import FuncOp


def _op_count(func: FuncOp) -> int:
    return sum(1 for _ in func.walk())


class PassError(RuntimeError):
    """A verification failure or an ill-formed pass pipeline."""


class Pass:
    """Base class: ``run`` returns True when it modified the function."""

    name = "pass"

    def run(self, func: FuncOp) -> bool:
        raise NotImplementedError


class PassManager:
    """Runs a pass pipeline, optionally iterating to a fixed point.

    The structural verifier runs after every pass that reports a
    change, so a broken rewrite is caught at the pass that introduced
    it rather than at code generation.
    """

    def __init__(self, passes: Optional[List[Pass]] = None, max_iterations: int = 8):
        self.passes = passes if passes is not None else []
        self.max_iterations = max_iterations

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, func: FuncOp, to_fixed_point: bool = False) -> bool:
        changed_any = False
        for _ in range(self.max_iterations if to_fixed_point else 1):
            changed = False
            for pass_ in self.passes:
                pass_changed = self._run_one(pass_, func)
                if pass_changed:
                    self._verify_after(pass_, func)
                changed |= pass_changed
            changed_any |= changed
            if not changed:
                break
        return changed_any

    @staticmethod
    def _run_one(pass_: Pass, func: FuncOp) -> bool:
        """Run one pass, traced with per-pass timing + op-count delta.

        The op counts walk the whole function, so they are computed only
        when a tracer is active (the disabled path is the bare
        ``pass_.run``)."""
        if not _trace.enabled():
            return pass_.run(func)
        ops_before = _op_count(func)
        with _trace.span(f"pass.{pass_.name}", "affine") as span:
            pass_changed = pass_.run(func)
            ops_after = _op_count(func)
            span.args = {
                "changed": pass_changed,
                "ops_before": ops_before,
                "ops_after": ops_after,
                "ops_delta": ops_after - ops_before,
            }
        return pass_changed

    @staticmethod
    def _verify_after(pass_: Pass, func: FuncOp) -> None:
        from repro.affine.passes.verify import verify_func

        engine = verify_func(func)
        if engine.has_errors:
            raise PassError(
                f"verification failed after pass {pass_.name!r}:\n{engine.render()}"
            )
