"""Multi-objective DSE: objective specs, dominance, Pareto frontiers.

The two-stage engine historically returned one best design (minimum
latency within the resource budget).  ScaleHLS frames HLS design-space
exploration as discovering the latency-vs-resource *Pareto frontier*
instead, and this module supplies the pieces the engine threads
together to do that:

* :class:`Objective` -- a parsed objective spec (``"single"``,
  ``"pareto[:axes]"``, or ``"weighted:axis=w,..."``) mapping report
  fields to minimized axes;
* :func:`dominates` -- weak Pareto dominance over objective vectors;
* :class:`ParetoPoint` -- one scored design, JSON-round-trippable so
  frontiers survive checkpoint journals and the serve result store;
* :class:`ParetoFrontier` -- a dominance-pruned set with deterministic
  membership and ordering.

Determinism contract: frontier membership is a pure function of the
*set* of scored candidates -- insertion happens in canonical candidate
order, ties between equal objective vectors keep the smallest candidate
key, and :meth:`ParetoFrontier.points` sorts by ``(values, key)`` -- so
cached/uncached/resumed sweeps that score the same
candidates reconstruct bit-identical frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hls.device import FPGADevice
from repro.hls.report import SynthesisReport

#: Every minimizable axis, in canonical order.  ``latency`` is cycles;
#: the resource axes mirror :class:`~repro.hls.report.Resources`.
AXES: Tuple[str, ...] = ("latency", "dsp", "bram", "lut", "ff")

#: The field behind each resource axis, on a report's ``resources`` and
#: on an :class:`FPGADevice` budget alike.
_FIELDS = {"dsp": "dsp", "bram": "bram_bits", "lut": "lut", "ff": "ff"}


def axis_value(report: SynthesisReport, axis: str) -> int:
    """The minimized value of one axis, read off a synthesis report."""
    if axis == "latency":
        return report.total_cycles
    try:
        return getattr(report.resources, _FIELDS[axis])
    except KeyError:
        raise ValueError(
            f"unknown objective axis {axis!r}; expected one of {AXES}"
        ) from None


@dataclass(frozen=True)
class Objective:
    """A parsed DSE objective spec.

    ``mode`` is one of ``"single"`` (classic best-latency search, the
    default -- frontier machinery stays off), ``"pareto"`` (return the
    dominance-pruned frontier over ``axes``), or ``"weighted"``
    (build the frontier, then select the member minimizing the
    normalized weighted sum).  ``axes`` is the minimized subset of
    :data:`AXES` in canonical order; ``weights`` pairs with ``axes``
    for weighted mode (all 1.0 otherwise).
    """

    mode: str = "single"
    axes: Tuple[str, ...] = ("latency", "dsp")
    weights: Tuple[float, ...] = (1.0, 1.0)

    @property
    def wants_frontier(self) -> bool:
        """Whether the engine should maintain a Pareto frontier."""
        return self.mode in ("pareto", "weighted")

    @property
    def canonical(self) -> str:
        """The normalized spec string (stable across parse round-trips)."""
        if self.mode == "single":
            return "single"
        if self.mode == "pareto":
            return "pareto:" + ",".join(self.axes)
        parts = [
            f"{axis}={weight:g}"
            for axis, weight in zip(self.axes, self.weights)
        ]
        return "weighted:" + ",".join(parts)

    def vector(self, report: SynthesisReport) -> Tuple[int, ...]:
        """The minimized objective vector of one report."""
        return tuple(axis_value(report, axis) for axis in self.axes)

    def reference_vector(
        self, baseline: SynthesisReport, budget: FPGADevice
    ) -> Tuple[float, ...]:
        """Per-axis normalizers for :meth:`scalarize`.

        Latency normalizes against the degree-1 baseline design (the
        worst latency the ladder ever accepts); resource axes against
        the device budget.  Every normalizer is clamped >= 1 so a zero
        budget cannot divide by zero.
        """
        reference: List[float] = []
        for axis in self.axes:
            if axis == "latency":
                reference.append(float(max(1, baseline.total_cycles)))
            else:
                reference.append(float(max(1, getattr(budget, _FIELDS[axis]))))
        return tuple(reference)

    def scalarize(
        self, values: Sequence[int], reference: Sequence[float]
    ) -> float:
        """Weighted sum of normalized axis values (lower is better)."""
        return sum(
            weight * value / ref
            for weight, value, ref in zip(self.weights, values, reference)
        )


def parse_objective(spec) -> Objective:
    """Parse an objective spec string (or pass through an Objective).

    Accepted forms::

        "single"                          # classic best-latency search
        "pareto"                          # frontier over latency,dsp
        "pareto:latency,dsp,bram"         # frontier over chosen axes
        "weighted:latency=1,dsp=0.25"     # weighted-sum selection

    Axes are normalized to canonical :data:`AXES` order and duplicates
    rejected; a :class:`ValueError` names the offending token.
    """
    if isinstance(spec, Objective):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"objective spec must be a non-empty string, got {spec!r}")
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if head == "single":
        if tail:
            raise ValueError("objective 'single' takes no axes")
        return Objective(mode="single")
    if head == "pareto":
        axes = _parse_axes(tail) if tail else ("latency", "dsp")
        return Objective(
            mode="pareto", axes=axes, weights=tuple(1.0 for _ in axes)
        )
    if head == "weighted":
        if not tail:
            raise ValueError(
                "objective 'weighted' needs axis=weight pairs, e.g. "
                "'weighted:latency=1,dsp=0.25'"
            )
        pairs: Dict[str, float] = {}
        for token in tail.split(","):
            axis, eq, raw = token.partition("=")
            axis = axis.strip().lower()
            if axis not in AXES:
                raise ValueError(
                    f"unknown objective axis {axis!r}; expected one of {AXES}"
                )
            if axis in pairs:
                raise ValueError(f"duplicate objective axis {axis!r}")
            if not eq:
                raise ValueError(
                    f"weighted objective axis {axis!r} needs '=weight'"
                )
            try:
                weight = float(raw)
            except ValueError:
                raise ValueError(
                    f"invalid weight {raw!r} for axis {axis!r}"
                ) from None
            if not weight > 0.0:
                raise ValueError(
                    f"weight for axis {axis!r} must be > 0, got {weight!r}"
                )
            pairs[axis] = weight
        axes = tuple(axis for axis in AXES if axis in pairs)
        return Objective(
            mode="weighted",
            axes=axes,
            weights=tuple(pairs[axis] for axis in axes),
        )
    raise ValueError(
        f"unknown objective mode {head!r}; expected 'single', 'pareto', "
        "or 'weighted'"
    )


def _parse_axes(tail: str) -> Tuple[str, ...]:
    seen: List[str] = []
    for token in tail.split(","):
        axis = token.strip().lower()
        if axis not in AXES:
            raise ValueError(
                f"unknown objective axis {axis!r}; expected one of {AXES}"
            )
        if axis in seen:
            raise ValueError(f"duplicate objective axis {axis!r}")
        seen.append(axis)
    if not seen:
        raise ValueError("objective axis list is empty")
    return tuple(axis for axis in AXES if axis in seen)


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether vector ``a`` Pareto-dominates ``b`` (all <=, any <)."""
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


@dataclass(frozen=True)
class ParetoPoint:
    """One scored design on (or considered for) the frontier.

    Carries the candidate identity (journal ``key``, parallelism
    vector, bank cap), the objective vector, and the full report
    scalars so serve payloads and journals can reconstruct the frontier
    without re-estimating anything.
    """

    key: str
    parallelism: Tuple[Tuple[str, int], ...]
    bank_cap: int
    values: Tuple[int, ...]
    cycles: int
    dsp: int
    lut: int
    ff: int
    bram_bits: int
    power_w: float

    @classmethod
    def from_report(
        cls,
        key: str,
        parallelism: Dict[str, int],
        bank_cap: int,
        objective: Objective,
        report: SynthesisReport,
    ) -> "ParetoPoint":
        return cls(
            key=key,
            parallelism=tuple(sorted(parallelism.items())),
            bank_cap=bank_cap,
            values=objective.vector(report),
            cycles=report.total_cycles,
            dsp=report.resources.dsp,
            lut=report.resources.lut,
            ff=report.resources.ff,
            bram_bits=report.resources.bram_bits,
            power_w=report.power_w,
        )

    def to_record(self) -> dict:
        """A JSON-safe record (journal / serve payload form)."""
        return {
            "key": self.key,
            "parallelism": {name: degree for name, degree in self.parallelism},
            "bank_cap": self.bank_cap,
            "values": list(self.values),
            "cycles": self.cycles,
            "dsp": self.dsp,
            "lut": self.lut,
            "ff": self.ff,
            "bram_bits": self.bram_bits,
            "power_w": self.power_w,
        }


@dataclass
class ParetoFrontier:
    """A dominance-pruned set of :class:`ParetoPoint` members.

    Invariant: no member dominates another, and every point ever
    rejected (or evicted) was dominated by some member at the time.
    Two points with *equal* objective vectors are interchangeable for
    dominance; the one with the smaller candidate key is kept so
    membership does not depend on insertion order.
    """

    members: List[ParetoPoint] = field(default_factory=list)
    pruned: int = 0

    def insert(self, point: ParetoPoint) -> bool:
        """Add ``point`` unless dominated; evict members it dominates.

        Returns True when the point joined the frontier.
        """
        survivors: List[ParetoPoint] = []
        for member in self.members:
            if dominates(member.values, point.values):
                self.pruned += 1
                return False
            if member.values == tuple(point.values):
                # Equal vectors: keep the lexicographically-smaller key
                # so the survivor is independent of insertion order.
                if member.key <= point.key:
                    self.pruned += 1
                    return False
                self.pruned += 1
                continue
            if dominates(point.values, member.values):
                self.pruned += 1
                continue
            survivors.append(member)
        survivors.append(point)
        self.members = survivors
        return True

    def points(self) -> List[ParetoPoint]:
        """Members in canonical order: by objective vector, then key."""
        return sorted(self.members, key=lambda p: (p.values, p.key))

    def __len__(self) -> int:
        return len(self.members)

    def to_records(self) -> List[dict]:
        return [point.to_record() for point in self.points()]


def frontier_summary(points: Sequence[ParetoPoint], objective: Objective) -> str:
    """A deterministic text table of the frontier (CLI / report output)."""
    lines = [
        f"pareto frontier ({len(points)} designs, axes: "
        + ",".join(objective.axes) + ")"
    ]
    for point in points:
        tiles = ",".join(f"{name}={deg}" for name, deg in point.parallelism)
        lines.append(
            f"  cycles={point.cycles} dsp={point.dsp} lut={point.lut} "
            f"ff={point.ff} bram_bits={point.bram_bits} "
            f"cap={point.bank_cap} [{tiles}]"
        )
    return "\n".join(lines)
