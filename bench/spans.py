"""Span recorder: times the program's public entry points from outside.

Nothing under ``src/`` is edited.  Each declared dotted name is resolved,
wrapped, and rebound on the module or class that defines it *and* on
every loaded ``repro.*`` module that imported it by name (``from x
import f`` copies the binding, so patching the definer alone would miss
most call sites).  Each call appends one span -- ``(id, parent, op,
layer, name, start, end)`` -- to an in-memory list; nothing is written
until the pass ends.  A layer's self time is its spans' duration minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

#: span name -> (layer, dotted path of a public entry point).
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "dsl.build": ("dsl", "repro.workloads.get"),
    "depgraph.build": ("depgraph", "repro.depgraph.graph.build_dependence_graph"),
    "depgraph.carried": ("depgraph", "repro.depgraph.analysis.carried_dependences_generic"),
    "polyir.lower": ("polyir", "repro.polyir.program.lower_function"),
    "polyir.apply": ("polyir", "repro.polyir.program.PolyProgram.apply_schedule"),
    "isl.ast_build": ("isl", "repro.isl.astbuild.AstBuilder.build"),
    "affine.lower": ("affine", "repro.affine.lowering.lower_program"),
    "affine.lower_incremental": ("affine", "repro.affine.lowering.lower_program_incremental"),
    "affine.verify": ("affine", "repro.affine.passes.verify.verify_func"),
    "affine.canonicalize": ("affine", "repro.affine.passes.canonicalize.canonicalize"),
    "affine.sim_compile": ("affine", "repro.affine.compile.compile_func"),
    "affine.sim_run": ("affine", "repro.affine.compile.simulate"),
    "hls.estimate": ("hls", "repro.hls.estimator.HlsEstimator.estimate"),
    "hlsgen.codegen": ("hlsgen", "repro.hlsgen.codegen.generate_hls_c"),
    "dse.auto_dse": ("dse", "repro.dse.engine.auto_dse"),
    "dse.stage1": ("dse", "repro.dse.stage1.plan_stage1"),
    "dse.node_config": ("dse", "repro.dse.stage2.plan_node_config"),
    "dataflow.auto_dse": ("dataflow", "repro.dataflow.dse.auto_dse_dataflow"),
    "dataflow.estimate": ("dataflow", "repro.dataflow.estimate.estimate_design"),
    "dataflow.compose": ("dataflow", "repro.dataflow.estimate.compose_report"),
    "fuzz.generate": ("fuzz", "repro.fuzz.generator.random_schedule"),
    "fuzz.reference": ("fuzz", "repro.dsl.function.Function.reference_execute"),
}


#: Marks a patched attribute its owner inherited rather than defined.
_INHERITED = object()


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    op_id: int
    layer: str
    name: str
    start: float
    end: float


def resolve(dotted: str):
    """``(owner, attribute, function)`` for a dotted public name, or None.

    The owner is the module, or the class for ``module.Class.method``.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:-1]:
                owner = getattr(owner, attribute)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class SpanRecorder:
    """Patches the entry points on enter, restores every one on exit."""

    def __init__(self, entry_points: Optional[Dict[str, Tuple[str, str]]] = None):
        self.entry_points = dict(ENTRY_POINTS if entry_points is None else entry_points)
        self.spans: List[Span] = []
        self.unresolved: List[str] = []
        self.op_id = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []
        # A module first imported while patched keeps the wrapper it
        # copied; once the pass is over that wrapper must cost nothing.
        self._active = False

    def _wrap(self, layer: str, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder._active:
                return function(*args, **kwargs)
            recorder._next_id += 1
            span_id = recorder._next_id
            stack = recorder._stack
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, parent_id, recorder.op_id, layer, name, start, end)
                )

        return traced

    def __enter__(self) -> "SpanRecorder":
        for name, (layer, dotted) in self.entry_points.items():
            found = resolve(dotted)
            if found is None:
                self.unresolved.append(name)
                print(f"bench: warning: span entry point {dotted} no longer "
                      f"resolves; its metrics read 0", file=sys.stderr)
                continue
            owner, attribute, function = found
            traced = self._wrap(layer, name, function)
            self._rebind(owner, attribute, traced)
            # Call sites that did `from module import function`.
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is function:
                        self._rebind(module, alias, traced)
        self._active = True
        return self

    def start(self, op_index: int) -> None:
        """Spans recorded from now on belong to this op (1-based id)."""
        self.op_id = op_index + 1

    def stop(self) -> None:
        pass

    def _rebind(self, owner, attribute: str, traced) -> None:
        self._patched.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, traced)

    def __exit__(self, *exc_info) -> None:
        self._active = False
        for owner, attribute, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    # -- reading the spans ---------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        return summarize(self.spans)

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent_id == 0)

    def write_chrome_trace(self, path: str) -> None:
        """Chrome ``trace_event`` JSON: load it in Perfetto or chrome://tracing."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"span": s.span_id, "parent": s.parent_id, "op": s.op_id},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    spans = list(spans)
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        child_seconds[span.parent_id] += span.end - span.start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = table[span.name]
        duration = span.end - span.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_seconds.get(span.span_id, 0.0)
    return dict(table)
