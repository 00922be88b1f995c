"""Hash-consing (interning) context for the affine IR atoms.

Every :class:`~repro.isl.affine.AffineExpr` and
:class:`~repro.isl.constraint.Constraint` is immutable and compared
structurally, and a DSE sweep constructs the same handful of expressions
millions of times (every ``substitute``/``__add__`` on a constraint
system re-creates its terms).  Interning them into a per-process table
makes construction of an already-seen value a single dict lookup, makes
``__eq__`` an identity test on the hot path, and collapses the memory
footprint of the memo tables in :mod:`repro.isl.memo`, whose keys are
tuples of these atoms (hwtHls keeps its SSA objects interned for the
same reason).

The tables live on an explicit :class:`InternContext` object -- not bare
module globals -- so the planned compile-server refactor (ROADMAP item
1) can give each session its own context; :func:`activate` is the seam.
The default process-wide context preserves today's behaviour: worker
processes of the parallel DSE layer get their own copy at fork/spawn
time, and since interning never changes *values* (only identity), a
fresh or inherited table can only change speed, never results.

Interning discipline (see ``docs/performance.md``):

* identity-compare (``a is b``) implies structural equality **within
  one context**; structural equality does NOT imply identity (objects
  may come from a cleared table slice, another context, or unpickling
  mid-flight), so ``__eq__`` keeps a structural fallback;
* interned classes define ``__reduce__`` so pickling round-trips
  through the constructor and re-interns on arrival;
* tables are capacity-bounded with wholesale clearing (same policy as
  :class:`repro.isl.memo.MemoTable`): clearing never invalidates live
  objects, it only lets future constructions allocate anew.

This module also owns the ``REPRO_ISL_REFERENCE`` escape hatch: with
the environment variable set (or :func:`set_reference_mode`), the isl
substrate routes its vectorized kernels -- point enumeration and
counting, and bank enumeration -- through the original pure-Python
loops, and asks Fourier-Motzkin everything the AST build otherwise
decides from its loop nest or projects from a subset
(``astbuild._implies``, ``BasicSet._reaching``) and everything
dependence analysis otherwise shows non-empty by a witness pair
(``depgraph.analysis``); the differential test suite holds all of it
bit-identical to the fast path.
"""

from __future__ import annotations

import os
from typing import Any, Dict

#: Default capacity of each intern table before a wholesale clear.
DEFAULT_CAP = 1 << 17


class InternContext:
    """One process/session worth of intern + compiled-kernel tables.

    ``exprs`` and ``constraints`` map structural keys to the canonical
    interned instance.
    """

    __slots__ = ("cap", "exprs", "constraints", "kernel_fns")

    def __init__(self, cap: int = DEFAULT_CAP):
        if cap <= 0:
            raise ValueError("intern table capacity must be positive")
        self.cap = cap
        self.exprs: Dict[Any, Any] = {}
        self.constraints: Dict[Any, Any] = {}
        # Compiled whole-function simulation kernels keyed by FuncOp
        # fingerprint (see repro.affine.compile); kept here so a cleared
        # or per-session context drops its compiled code with it.
        self.kernel_fns: Dict[Any, Any] = {}

    def stats(self) -> Dict[str, int]:
        """Current table sizes, keyed by table name."""
        return {
            "exprs": len(self.exprs),
            "constraints": len(self.constraints),
            "kernel_fns": len(self.kernel_fns),
        }

    def clear(self) -> None:
        """Drop every table (live objects stay valid; see module docs)."""
        self.exprs.clear()
        self.constraints.clear()
        self.kernel_fns.clear()


_ACTIVE = InternContext()


def active() -> InternContext:
    """The context new atoms intern into."""
    return _ACTIVE


def activate(context: InternContext) -> InternContext:
    """Install ``context`` as the active one; returns the previous.

    The seam for per-session isolation: a compile server activates a
    session's context around each request.  Objects interned under the
    old context remain valid -- they just compare structurally against
    atoms from the new one.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context
    return previous


def stats() -> Dict[str, int]:
    """Table sizes of the active context."""
    return _ACTIVE.stats()


# -- reference-mode escape hatch ---------------------------------------------

_REFERENCE = os.environ.get("REPRO_ISL_REFERENCE", "") not in ("", "0")


def reference_mode() -> bool:
    """True when the pure-Python reference kernels are forced on."""
    return _REFERENCE


def set_reference_mode(flag: bool) -> bool:
    """Force (or release) the reference kernels; returns the previous.

    Tests that drive worker processes should *also* set the
    ``REPRO_ISL_REFERENCE`` environment variable so spawned workers
    inherit the mode.
    """
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = bool(flag)
    return previous
