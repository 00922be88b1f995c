"""Benchmark workloads from the paper's evaluation, in the POM DSL.

* :mod:`repro.workloads.polybench` -- GEMM/BICG/GESUMMV/2MM/3MM (Table III).
* :mod:`repro.workloads.stencils` -- Jacobi-1d/2d, Heat-1d, Seidel (Table VII).
* :mod:`repro.workloads.image` -- EdgeDetect/Gaussian/Blur (Tables V-VI).
* :mod:`repro.workloads.dnn` -- VGG-16 / ResNet-18 critical loops (Fig. 13).
* :mod:`repro.workloads.dataflow` -- multi-kernel FIFO pipeline designs
  (``#pragma HLS dataflow``; see ``docs/dataflow.md``).

The registry front door is :func:`get` / :func:`names`::

    function = repro.workloads.get("gemm", 256)
    design = repro.workloads.get("image-pipeline", 64)

A single-kernel name builds a :class:`~repro.dsl.function.Function`;
a dataflow name builds a :class:`~repro.dataflow.DataflowDesign`
(callers that only handle one kind filter with ``names(kind=...)`` or
check :func:`kind_of`).  Unknown names raise a stable ``WLD001``
:class:`~repro.diagnostics.DiagnosticError` listing every registered
workload, identically from the CLI, shard workers, the fuzz harness,
and serve-job validation.
"""

from __future__ import annotations

import difflib
from typing import Dict, Optional, Tuple

from repro.workloads import dataflow, dnn, image, polybench, polybench_extra, stencils

#: Suite name -> (kind, builder dict).  Single-kernel suites build
#: Functions; the dataflow suite builds DataflowDesigns.
_SUITES = {
    "polybench": ("function", polybench.SUITE),
    "polybench-extra": ("function", polybench_extra.EXTRA_SUITE),
    "stencils": ("function", stencils.SUITE),
    "image": ("function", image.SUITE),
    "dnn": ("function", dnn.SUITE),
    "dataflow": ("dataflow", dataflow.SUITE),
}

WORKLOAD_KINDS = ("function", "dataflow")


def _registry() -> Dict[str, Tuple[str, object]]:
    registry: Dict[str, Tuple[str, object]] = {}
    for kind, suite in _SUITES.values():
        for name, factory in suite.items():
            registry[name] = (kind, factory)
    return registry


def names(kind: Optional[str] = None) -> Tuple[str, ...]:
    """Every registered workload name, sorted; optionally one kind only."""
    if kind is not None and kind not in WORKLOAD_KINDS:
        raise ValueError(
            f"unknown workload kind {kind!r}; expected one of {WORKLOAD_KINDS}"
        )
    return tuple(sorted(
        name
        for name, (entry_kind, _) in _registry().items()
        if kind is None or entry_kind == kind
    ))


def suites() -> Dict[str, Tuple[str, ...]]:
    """Suite name -> its workload names, in declaration order."""
    return {
        suite_name: tuple(suite)
        for suite_name, (_, suite) in _SUITES.items()
    }


def kind_of(name: str) -> str:
    """``"function"`` or ``"dataflow"``; WLD001 on unknown names."""
    kind, _ = _lookup(name)
    return kind


def _lookup(name: str):
    from repro.diagnostics import DiagnosticError

    entry = _registry().get(name)
    if entry is None:
        close = difflib.get_close_matches(str(name), _registry(), n=3)
        hint = f" (did you mean: {', '.join(close)}?)" if close else ""
        raise DiagnosticError(
            f"unknown workload {name!r}{hint}; "
            f"available: {', '.join(names())}",
            code="WLD001",
        )
    return entry


def get(name: str, size: Optional[int] = None):
    """Build a registered workload by name.

    ``size`` is the problem size (each builder's ``n``); ``None`` takes
    the builder's default.  Raises ``WLD001`` on an unknown name and
    ``WLD002`` on an unusable size, both stable
    :class:`~repro.diagnostics.DiagnosticError` codes.
    """
    from repro.diagnostics import DiagnosticError

    _, factory = _lookup(name)
    if size is None:
        return factory()
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise DiagnosticError(
            f"workload {name!r}: size must be a positive integer, got {size!r}",
            code="WLD002",
        )
    try:
        return factory(size)
    except ValueError as exc:
        raise DiagnosticError(
            f"workload {name!r} cannot be built at size {size}: {exc}",
            code="WLD002",
        ) from exc


__all__ = [
    "polybench",
    "polybench_extra",
    "stencils",
    "image",
    "dnn",
    "dataflow",
    "get",
    "names",
    "suites",
    "kind_of",
    "WORKLOAD_KINDS",
]
