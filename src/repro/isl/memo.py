"""Memo tables for the hot isl kernels, scoped to a :class:`MemoContext`.

The integer-set library sits at the bottom of every lowering: each
AST build projects domains with Fourier-Motzkin elimination, tests
emptiness, and derives loop bounds, and a DSE run re-lowers
near-identical programs hundreds of times.  All of those kernels are
pure functions of immutable inputs (:class:`~repro.isl.sets.BasicSet`
and :class:`~repro.isl.constraint.Constraint` never mutate), so their
results can be memoized and shared across lowerings.

Keys are *order-sensitive* structural tuples (dims + constraint tuples,
not frozensets) for value-producing kernels: a given input always maps
to exactly the result a fresh computation would produce, so memoized
and unmemoized runs stay bit-identical.  The boolean kernel (emptiness)
may key on an order-insensitive form since a bool cannot diverge.

The tables live on an explicit :class:`MemoContext` -- the same
discipline as :class:`repro.isl.intern.InternContext` -- so the compile
server (:mod:`repro.serve`) can give each session its own tables via
:func:`activate`; concurrent clients then never share mutable memo
state.  The default process-wide context is shared by everything that
runs in one process (``repro dse --all`` runs its four sweeps over
it), and a worker process (a serve job, a ``report_all --jobs``
experiment) gets a snapshot of the parent's at fork time.  Since
memoized and unmemoized runs are bit-identical, a warm, fresh or
inherited table can only change speed, never results.

A context is built enabled or disabled (``MemoContext(enabled=False)``):
a ``cache=False`` DSE sweep runs under a disabled one of its own (see
:class:`repro.session.SessionContext`), so an uncached sweep neither
reads nor fills the tables of the context around it.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class MemoTable:
    """A bounded dict-backed memo table with hit/miss counters.

    When the table exceeds ``cap`` entries it is cleared wholesale: the
    working sets of this library are small and bursty (one compilation's
    constraint systems), so wholesale eviction is both simple and
    effectively LRU at the granularity that matters.
    """

    __slots__ = ("name", "cap", "data", "hits", "misses")

    _MISS = object()

    def __init__(self, name: str, cap: int = 65536):
        self.name = name
        self.cap = cap
        self.data: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The cached value, or None on a miss (values are never None)."""
        value = self.data.get(key, self._MISS)
        if value is self._MISS:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if len(self.data) >= self.cap:
            self.data.clear()
        self.data[key] = value

    def clear(self) -> None:
        self.data.clear()


class MemoContext:
    """One process/session worth of isl memo tables.

    * ``projection`` -- Fourier-Motzkin projection results:
      ``(dims, constraints, name)`` -> ``BasicSet``;
    * ``emptiness`` -- rational emptiness results: ``BasicSet`` -> bool;
    * ``bounds`` -- loop-bound extraction:
      ``(dims, constraints, name, context)`` -> bounds.

    ``enabled`` gates all three at once (the DSE ``cache=False`` hatch).
    A context is cheap to construct, so a compile-server session can own
    a private one and :func:`activate` it around each request.
    """

    __slots__ = ("projection", "emptiness", "bounds", "enabled")

    def __init__(self, enabled: bool = True, cap: int = 65536):
        self.projection = MemoTable("projection", cap)
        self.emptiness = MemoTable("emptiness", cap)
        self.bounds = MemoTable("bounds", cap)
        self.enabled = enabled

    def tables(self) -> Tuple[MemoTable, ...]:
        return (self.projection, self.emptiness, self.bounds)

    def stats_snapshot(self) -> Dict[str, Tuple[int, int]]:
        """Current (hits, misses) per table, keyed by table name."""
        return {table.name: (table.hits, table.misses) for table in self.tables()}

    def clear(self) -> None:
        for table in self.tables():
            table.clear()


_ACTIVE = MemoContext()


def active() -> MemoContext:
    """The context the isl kernels memoize into."""
    return _ACTIVE


def activate(context: MemoContext) -> MemoContext:
    """Install ``context`` as the active one; returns the previous.

    The per-session seam: the compile server activates a session's memo
    context around each request, exactly as
    :func:`repro.isl.intern.activate` does for the intern tables.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context
    return previous


def stats_snapshot() -> Dict[str, Tuple[int, int]]:
    """Current (hits, misses) per table of the active context."""
    return _ACTIVE.stats_snapshot()


def clear_all() -> None:
    _ACTIVE.clear()
