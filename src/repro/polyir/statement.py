"""Polyhedral statements: the records manipulated by the polyhedral IR.

Each compute lowers to one :class:`PolyStatement` holding its iteration
domain (an integer set), its loop order plus static sequencing levels
(together encoding the 2d+1 schedule), the statement body rewritten
under transformations, and attached hardware-optimization annotations
(paper Fig. 9-2: "attach computation statements and optimization info
to user/for nodes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dsl.compute import Compute
from repro.dsl.expr import Access, Expr
from repro.dsl.placeholder import Placeholder
from repro.isl.affine import AffineExpr
from repro.isl.maps import ScheduleMap
from repro.isl.sets import BasicSet


@dataclass(frozen=True)
class HardwareOpt:
    """A pipeline or unroll annotation bound to a loop level name."""

    kind: str  # "pipeline" | "unroll"
    level: str
    value: int  # target II for pipeline; factor for unroll (0 = complete)

    def __post_init__(self):
        if self.kind not in ("pipeline", "unroll"):
            raise ValueError(f"unknown hardware opt {self.kind!r}")


@dataclass
class PolyStatement:
    """One statement in the polyhedral IR."""

    name: str
    domain: BasicSet
    loop_order: List[str]          # dynamic schedule dims, outermost first
    statics: List[int]             # 2d+1 static dims, length len(loop_order)+1
    body: Expr                     # RHS expression over current loop dims
    dest: Access                   # destination access over current loop dims
    hw_opts: List[HardwareOpt] = field(default_factory=list)
    source: Optional[Compute] = None
    #: ``(body, dest, index_dims())`` of the pair it was read from:
    #: carried by ``copy()``, void once a transform rebinds either.
    _index_dims: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.statics) != len(self.loop_order) + 1:
            raise ValueError(
                f"{self.name}: need {len(self.loop_order) + 1} static dims, "
                f"got {len(self.statics)}"
            )
        missing = [d for d in self.loop_order if d not in self.domain.dims]
        if missing:
            raise ValueError(f"{self.name}: loop dims {missing} not in domain")
        if len(set(self.loop_order)) != len(self.loop_order):
            raise ValueError(f"{self.name}: duplicate loop dims {self.loop_order}")

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_compute(compute: Compute, position: int) -> "PolyStatement":
        """Extract polyhedral semantics from a compute (Fig. 9-c step 1)."""
        bounds = compute.domain_bounds()
        dims = compute.iter_names
        domain = BasicSet.box({d: bounds[d] for d in dims}, order=dims)
        return PolyStatement(
            name=compute.name,
            domain=domain,
            loop_order=list(dims),
            statics=[position] + [0] * len(dims),
            body=compute.expr,
            dest=compute.dest,
            source=compute,
        )

    # -- schedule view ------------------------------------------------------------

    def schedule_map(self) -> ScheduleMap:
        """The 2d+1 schedule of this statement."""
        entries: List = []
        for static, dim in zip(self.statics, self.loop_order):
            entries.append(static)
            entries.append(AffineExpr.var(dim))
        entries.append(self.statics[-1])
        return ScheduleMap(tuple(self.domain.dims), entries)

    def depth(self) -> int:
        return len(self.loop_order)

    def level_of(self, dim: str) -> int:
        try:
            return self.loop_order.index(dim)
        except ValueError:
            raise KeyError(f"{self.name}: no loop level named {dim!r}") from None

    def loop_extent(self, dim: str) -> Optional[int]:
        """Constant trip count of a loop dim, if bounds are constant."""
        lo, hi = self.domain.constant_bounds(dim)
        if lo is None or hi is None:
            return None
        return max(0, hi - lo + 1)

    # -- hardware annotations -------------------------------------------------------

    def add_hw_opt(self, opt: HardwareOpt) -> None:
        if opt.level not in self.loop_order:
            raise KeyError(
                f"{self.name}: cannot attach {opt.kind} to unknown loop {opt.level!r}"
            )
        self.hw_opts.append(opt)

    # -- misc ----------------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """A stable structural fingerprint of the scheduled statement.

        Two statements with equal fingerprints produce identical AST
        subtrees and lowered code: the fingerprint covers the exact
        (order-sensitive) domain representation, the full 2d+1 schedule,
        the rewritten body/destination (via their structural reprs), and
        the attached hardware annotations, so it can stand for the
        statement in :func:`~repro.affine.lowering.lower_program_incremental`'s
        ``keys``.
        """
        return (
            self.name,
            self.domain.dims,
            self.domain.rows,
            tuple(self.loop_order),
            tuple(self.statics),
            repr(self.body),
            repr(self.dest),
            tuple(self.hw_opts),
        )

    def copy(self) -> "PolyStatement":
        # Every field as it is (a copy of a valid statement is valid),
        # the three lists the transforms edit in place copied.
        new = object.__new__(PolyStatement)
        new.__dict__.update(self.__dict__)
        new.loop_order = list(self.loop_order)
        new.statics = list(self.statics)
        new.hw_opts = list(self.hw_opts)
        return new

    def accesses(self) -> List[Access]:
        """All loads plus the store, over current loop dims."""
        return self.body.loads() + [self.dest]

    def index_dims(self) -> List[Tuple[Placeholder, List[Tuple[str, ...]]]]:
        """Per access, its array and the loop dims each index reads.

        A function of ``(body, dest)`` alone, so it is derived once per
        rewritten statement, not once per candidate that reuses it.
        """
        memo = self._index_dims
        if memo is None or memo[0] is not self.body or memo[1] is not self.dest:
            table = [
                (access.placeholder, [index.dims() for index in access.affine_indices()])
                for access in self.accesses()
            ]
            memo = self._index_dims = (self.body, self.dest, table)
        return memo[2]

    def __repr__(self):
        return (
            f"PolyStatement({self.name!r}, loops={self.loop_order}, "
            f"statics={self.statics})"
        )
