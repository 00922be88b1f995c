"""Scheduling directives recorded by the POM DSL primitives (Table II).

Primitives called on :class:`~repro.dsl.compute.Compute` objects append
directive records to the owning function's :class:`Schedule`.  The
polyhedral IR layer replays them as set/map manipulations; the hardware
primitives are carried through to the affine dialect as attributes.
Keeping directives as plain data is what lets programmers "explore
different schedule strategies ... without modifying the algorithm
specification".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.diagnostics import DiagnosticError


class ScheduleError(DiagnosticError):
    """An invalid scheduling directive (bad parameter or target).

    Carries a structured diagnostic (code ``SCH001`` for parameter-range
    errors) while remaining a :class:`ValueError` for compatibility.
    """

    def __init__(self, message, code: str = "SCH001", **kwargs):
        super().__init__(message, code=code, **kwargs)


class Directive:
    """Base class for all scheduling directives."""

    compute_name: str

    # Source location of the DSL call that created this directive, set
    # by the Compute scheduling methods.  Deliberately NOT a dataclass
    # field: fingerprints and serialization iterate ``fields()`` and
    # must not depend on where the directive was written.
    loc = None

    def fingerprint(self) -> tuple:
        """A stable structural fingerprint (directive kind + all fields)."""
        return (type(self).__name__,) + tuple(
            getattr(self, f.name) for f in fields(self)
        )


@dataclass
class Interchange(Directive):
    """Swap loop levels ``i`` and ``j`` of a compute."""

    compute_name: str
    i: str
    j: str


@dataclass
class Split(Directive):
    """Split loop ``i`` by ``factor`` into outer ``i0`` and inner ``i1``."""

    compute_name: str
    i: str
    factor: int
    i0: str
    i1: str

    def __post_init__(self):
        if self.factor < 2:
            raise ScheduleError(
                f"split of loop {self.i!r} on compute {self.compute_name!r}: "
                f"factor must be >= 2, got {self.factor}"
            )


@dataclass
class Tile(Directive):
    """Tile loops ``(i, j)`` by ``(ti, tj)`` into ``(i0, j0, i1, j1)``."""

    compute_name: str
    i: str
    j: str
    ti: int
    tj: int
    i0: str
    j0: str
    i1: str
    j1: str

    def __post_init__(self):
        if self.ti < 1 or self.tj < 1:
            raise ScheduleError(
                f"tile of loops ({self.i!r}, {self.j!r}) on compute "
                f"{self.compute_name!r}: factors must be >= 1, got "
                f"({self.ti}, {self.tj})"
            )


@dataclass
class Skew(Directive):
    """Skew loop ``j`` by ``factor * i``, producing ``(ip, jp)``.

    The new iterators satisfy ``ip = i`` and ``jp = j + factor * i`` -- the
    unimodular skew used to legalize wavefront pipelining of stencils.
    """

    compute_name: str
    i: str
    j: str
    factor: int
    ip: str
    jp: str

    def __post_init__(self):
        if self.factor == 0:
            raise ScheduleError(
                f"skew of loop {self.j!r} by {self.i!r} on compute "
                f"{self.compute_name!r}: factor must be non-zero"
            )


@dataclass
class Reverse(Directive):
    """Reverse loop ``i`` of a compute, producing ``i_new``."""

    compute_name: str
    i: str
    i_new: str


@dataclass
class Shift(Directive):
    """Shift loop ``i`` by ``offset`` (iteration-space translation)."""

    compute_name: str
    i: str
    offset: int
    i_new: str

    def __post_init__(self):
        if self.offset == 0:
            raise ScheduleError(
                f"shift of loop {self.i!r} on compute {self.compute_name!r}: "
                f"offset must be non-zero"
            )


@dataclass
class After(Directive):
    """Order ``compute_name`` after ``other`` at loop ``level``.

    ``level=None`` sequences the two computes at the outermost position
    (no loop sharing); otherwise the two computes share all loop levels
    from the outermost down to and including ``level``, and this compute
    runs after the other inside that shared loop body.

    ``structural`` marks user-written directives whose interleaving is
    part of the algorithm's meaning (e.g. ping-pong stencil sweeps);
    optimizer-emitted fusion directives set it False so the reference
    executor and the DSE do not treat them as algorithm structure.
    """

    compute_name: str
    other: str
    level: Optional[str]
    structural: bool = True


@dataclass
class Fuse(Directive):
    """Fuse this compute's loops with ``other`` down to ``level`` (inclusive).

    Equivalent to ``after`` but emphasizing loop sharing; the pair
    executes in original creation order inside the fused body.
    """

    compute_name: str
    other: str
    level: str
    structural: bool = True


@dataclass
class Pipeline(Directive):
    """Pipeline the loop at ``level`` with target initiation interval ``ii``."""

    compute_name: str
    level: str
    ii: int = 1

    def __post_init__(self):
        if self.ii < 1:
            raise ScheduleError(
                f"pipeline of loop {self.level!r} on compute "
                f"{self.compute_name!r}: target II must be >= 1, got {self.ii}"
            )


@dataclass
class Unroll(Directive):
    """Unroll the loop at ``level`` by ``factor`` (0 = complete unroll)."""

    compute_name: str
    level: str
    factor: int = 0

    def __post_init__(self):
        if self.factor < 0:
            raise ScheduleError(
                f"unroll of loop {self.level!r} on compute "
                f"{self.compute_name!r}: factor must be >= 0, got {self.factor}"
            )


@dataclass
class Schedule:
    """The ordered list of directives attached to a function."""

    directives: List[Directive] = field(default_factory=list)

    def add(self, directive: Directive) -> None:
        self.directives.append(directive)

    def for_compute(self, name: str) -> List[Directive]:
        return [d for d in self.directives if d.compute_name == name]

    def clear(self) -> None:
        self.directives.clear()

    def copy(self) -> "Schedule":
        return Schedule(list(self.directives))

    def fingerprint(self) -> tuple:
        """Ordered fingerprint of all directives (order is semantic)."""
        return tuple(d.fingerprint() for d in self.directives)

    def __len__(self) -> int:
        return len(self.directives)

    def __iter__(self):
        return iter(self.directives)
