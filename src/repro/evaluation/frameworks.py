"""Uniform framework runner and experiment record for the evaluation.

Every experiment compares strategies through one interface: build the
workload, apply a framework's optimization, synthesize with the virtual
HLS model, and report the paper's metrics (speedup over the unoptimized
baseline, resource utilization, power, achieved II, tile sizes,
parallelism degree, and DSE time).  Each table and figure declares
itself once as an :class:`Experiment`, with the paper's results it
reproduces as :class:`Claim` s; :func:`grid` runs its framework x
workload x size points and :func:`leaves` walks them back for
rendering.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dsl.function import Function
from repro.baselines import manual, pluto, polsca, scalehls
from repro.dse import auto_dse
from repro.hls.device import DEFAULT_DEVICE, FPGADevice
from repro.hls.report import SynthesisReport
from repro.pipeline import estimate
from repro.dse.options import DseOptions

FRAMEWORKS = ("baseline", "pluto", "polsca", "scalehls", "pom", "manual")

#: Frameworks that rewrite the baseline design's schedule without a search.
REWRITES = {
    "pluto": pluto.optimize,
    "polsca": polsca.optimize,
    "manual": manual.optimize_bicg,
}


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Reading:
    """One number a claim checks, next to its bound: ``value op bound``."""

    label: str
    value: Any
    op: str
    bound: Any

    @property
    def holds(self) -> bool:
        return OPS[self.op](self.value, self.bound)

    def __str__(self) -> str:
        if isinstance(self.bound, bool):
            return f"{self.label}: {'yes' if self.value else 'no'}"
        return f"{self.label} {_number(self.value)} {self.op} {_number(self.bound)}"


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


@dataclass(frozen=True)
class Claim:
    """One of the paper's results, checked on an experiment's ``run()`` result.

    ``check(result)`` yields the :class:`Reading` s the claim rests on.
    Readings labelled in ``partial`` are ones this reproduction is known
    to miss: they are reported, never gated.
    """

    name: str
    paper: str
    check: Callable[[Any], Iterable[Reading]]
    partial: Tuple[str, ...] = ()

    def verdict(self, result: Any) -> "Verdict":
        return Verdict(self.name, tuple(self.check(result)), self.partial)


@dataclass(frozen=True)
class Verdict:
    """A claim's readings on one result (plain data: it crosses processes)."""

    claim: str
    readings: Tuple[Reading, ...]
    partial: Tuple[str, ...] = ()

    @property
    def missed(self) -> List[Reading]:
        """The gated readings that do not hold."""
        return [r for r in self.readings if not r.holds and r.label not in self.partial]

    @property
    def holds(self) -> bool:
        return not self.missed

    @property
    def status(self) -> str:
        if self.missed:
            return "❌"
        return "✅" if all(r.holds for r in self.readings) else "◑"


@dataclass(frozen=True)
class Experiment:
    """One table or figure: ``render(run(**kwargs))``, printed by ``main``.

    ``quick`` holds the reduced configuration: the kwargs ``report_all
    --quick`` and the tier-1 claims test pass to ``run``.  When it names
    ``size``, ``repro experiment --size`` passes its own.  ``device_aware``
    means ``run`` takes a device-zoo name as ``device``; the paper tables
    are pinned to the paper's part.  ``claims`` are the paper's results
    the experiment reproduces, each checked on one ``run()`` result.
    """

    run: Callable[..., Any]
    render: Callable[[Any], str]
    quick: Mapping[str, Any] = field(default_factory=dict)
    device_aware: bool = False
    claims: Tuple[Claim, ...] = ()

    def main(self, **kwargs) -> Any:
        result = self.run(**kwargs)
        print(self.render(result))
        return result

    def verdicts(self, result: Any) -> List[Verdict]:
        return [claim.verdict(result) for claim in self.claims]


@dataclass
class RunResult:
    """One framework x workload data point."""

    framework: str
    benchmark: str
    size: int
    report: SynthesisReport
    baseline_cycles: int
    dse_time_s: float = 0.0
    tiles: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / max(1, self.report.total_cycles)

    @property
    def achieved_ii(self) -> Optional[int]:
        return self.report.worst_ii()

    @property
    def parallelism(self) -> float:
        copies = max([1, *(math.prod(vector) for vector in self.tiles.values())])
        return copies / (self.achieved_ii or 1)


def run_framework(
    framework: str,
    factory: Callable[..., Function],
    size: int,
    device: Optional[FPGADevice] = None,
    resource_fraction: float = 1.0,
    dataflow_scalehls: bool = False,
    **factory_kwargs,
) -> RunResult:
    """Build, optimize with one framework, and synthesize a workload."""
    if framework not in FRAMEWORKS:
        raise ValueError(f"unknown framework {framework!r}")
    device = device or DEFAULT_DEVICE

    baseline_fn = _build(factory, size, baseline=True, **factory_kwargs)
    baseline = estimate(baseline_fn, device=device)
    name = baseline_fn.name
    if framework == "baseline":
        return RunResult(framework, name, size, baseline, baseline.total_cycles)

    function = _build(factory, size, baseline=framework != "pom", **factory_kwargs)
    start = time.perf_counter()
    tiles: Dict[str, List[int]] = {}
    if framework in REWRITES:
        REWRITES[framework](function)
        report = estimate(function, device=device)
        dse_time = time.perf_counter() - start
    elif framework == "scalehls":
        result = scalehls.optimize(
            function, device=device, resource_fraction=resource_fraction,
            dataflow=dataflow_scalehls,
        )
        report = result.report
        tiles = {n: result.tile_vector(n) for n in result.orders}
        dse_time = result.dse_time_s
    else:  # pom
        result = auto_dse(function, options=DseOptions(device=device, resource_fraction=resource_fraction))
        report = result.report
        tiles = result.tile_vectors()
        dse_time = result.dse_time_s

    return RunResult(framework, name, size, report, baseline.total_cycles, dse_time, tiles)


def _build(factory, size, baseline: bool = False, **kwargs) -> Function:
    try:
        return factory(size, baseline=baseline, **kwargs)
    except TypeError:
        return factory(size, **kwargs)


def format_table(headers: List[str], rows: List[List[str]], title: str = "") -> str:
    """Render an aligned ASCII table (the harness's output format)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt_tiles(tiles: Dict[str, List[int]]) -> str:
    return ", ".join(str(v) for v in tiles.values()) or "-"


def grid(points: Iterable[Tuple[tuple, str, Callable[..., Function], int, dict]]) -> dict:
    """Run ``(keys, framework, factory, size, kwargs)`` points.

    Each point's :class:`RunResult` lands at ``results[keys[0]]...[keys[-1]]``
    (``kwargs`` go to :func:`run_framework`); dicts keep point order,
    which is the order the tables render in.
    """
    results: dict = {}
    for keys, framework, factory, size, kwargs in points:
        node = results
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = run_framework(framework, factory, size, **kwargs)
    return results


def leaves(results: dict, keys: tuple = ()) -> Iterator[Tuple[tuple, RunResult]]:
    """``(keys, result)`` for every :class:`RunResult` of a :func:`grid`, in order."""
    for key, value in results.items():
        if isinstance(value, RunResult):
            yield keys + (key,), value
        else:
            yield from leaves(value, keys + (key,))


def table_rows(results: dict, columns: Sequence[Callable[[RunResult], str]]) -> List[List[str]]:
    """One table row per :func:`leaves` entry: its keys, then its columns."""
    return [[*map(str, keys), *(column(r) for column in columns)] for keys, r in leaves(results)]


def ratio(pair: Dict[str, RunResult], top: str = "pom", bottom: str = "scalehls") -> float:
    """``top``'s speedup over ``bottom``'s on one workload."""
    return pair[top].speedup / pair[bottom].speedup


def cycles(r: RunResult) -> str:
    return str(r.report.total_cycles)


def speedup(r: RunResult) -> str:
    return f"{r.speedup:.1f}x"


def achieved_ii(r: RunResult) -> str:
    return str(r.achieved_ii or "-")


def utilization(resource: str) -> Callable[[RunResult], str]:
    """The ``count (share of the device)`` column of one resource."""
    def column(r: RunResult) -> str:
        share = getattr(r.report, f"{resource}_util")
        return f"{getattr(r.report.resources, resource)} ({share:.0%})"
    return column
