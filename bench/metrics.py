"""From one pass's raw measurements to the named metrics.

A *pass* is one walk over an op list: op intervals, the calibration
samples taken between them, and each op's :class:`~ops.Outcome`.
BENCHMARK.json names every metric and its unit; this module computes
the values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
from oplist import Op
from ops import Outcome
from paths import QOR_BASELINE_PATH
from profiler import PACKAGES


@dataclass
class Pass:
    ops: List[Op] = field(default_factory=list)
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)

    def normalized(self) -> List[float]:
        return calibrate.normalize(self.intervals, self.samples)

    def raw(self) -> List[float]:
        return [end - start for start, end in self.intervals]

    def total_counts(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for outcome in self.outcomes:
            for key, value in outcome.counts.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals


def qor_family(op: Op) -> str:
    """Ops whose chosen design must agree share one baseline entry."""
    return {"dse_nocache": "dse", "serve": "dse", "dnn": "dse"}.get(op.kind, op.kind)


def qor_key(op: Op) -> str:
    return f"{qor_family(op)}:{op.input_key}"


def load_qor_baseline() -> Dict[str, int]:
    with open(QOR_BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cycles"]


def qor_ratio_geomean(
    ops: Sequence[Op], cycles: Sequence[Optional[int]], baseline: Dict[str, int]
) -> Tuple[float, float, List[str]]:
    """``(geomean of cycles/baseline, geomean of cycles, drifted inputs)``
    over the distinct inputs that produced a design."""
    seen: Dict[str, int] = {}
    for op, value in zip(ops, cycles):
        if value is not None:
            seen.setdefault(qor_key(op), value)
    if not seen:
        raise ValueError("no op produced a design, so there is no QoR to report")
    keys = sorted(seen)
    ratios = [seen[key] / baseline[key] for key in keys]
    drifted = [
        f"{key}: {baseline[key]} -> {seen[key]}" for key in keys if seen[key] != baseline[key]
    ]
    ratio = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))
    absolute = math.exp(math.fsum(math.log(seen[key]) for key in keys) / len(keys))
    return ratio, absolute, drifted


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (the max when there are too few values)."""
    if len(values) < 10:
        return max(values)
    return quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(timed: Pass, qor_ratio: float) -> Dict[str, float]:
    """Every end-to-end metric except ``setup_s`` and ``peak_rss_mb``."""
    seconds = timed.normalized()
    return {
        "op_s_p50": median(seconds),
        "ops_per_s": len(seconds) / math.fsum(seconds),
        "qor_cycles_geomean": qor_ratio,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    untraced: Pass,
    spanned: Pass,
    span_table: Dict[str, Dict[str, float]],
    root_span_s: float,
    profiled: Optional[Pass],
    packages: Dict[str, Dict[str, float]],
    profile_calls: int,
    qor_absolute: float,
) -> Dict[str, float]:
    """Every per-layer metric.

    Times are shares of the span pass's own op time, so machine drift
    between passes cancels; counts are per op.  A layer that does not
    run on the workload reads 0.
    """
    ops = len(untraced.ops)
    spanned_s = math.fsum(spanned.raw())
    counts = untraced.total_counts()

    def share(*names: str) -> float:
        return _ratio(sum(span_table.get(n, {}).get("self_s", 0.0) for n in names), spanned_s)

    def calls(*names: str) -> float:
        return sum(span_table.get(n, {}).get("calls", 0) for n in names) / ops

    def per_op(key: str) -> float:
        return counts.get(key, 0.0) / ops

    untraced_s = untraced.normalized()
    spanned_norm = spanned.normalized()

    values = {
        "op_s_p90": p90(untraced_s),
        "op_pycalls": profile_calls / 1e3 / ops,
        "failed_share": sum(not o.ok for o in untraced.outcomes) / ops,
        "qor_cycles_abs_geomean": qor_absolute,
        "dsl.build_share": share("dsl.build"),
        "depgraph.build_share": share("depgraph.build"),
        "depgraph.carried_share": share("depgraph.carried"),
        "depgraph.carried_calls": calls("depgraph.carried"),
        "polyir.apply_share": share("polyir.apply", "polyir.lower"),
        "polyir.apply_calls": calls("polyir.apply"),
        "polyir.directives": per_op("polyir.directives"),
        "isl.ast_build_share": share("isl.ast_build"),
        "isl.ast_build_calls": calls("isl.ast_build"),
        "isl.memo_hit_ratio": _ratio(counts.get("isl.memo_hits", 0), counts.get("isl.memo_lookups", 0)),
        "isl.fm_eliminations": per_op("isl.fm_eliminations"),
        "isl.intern_atoms": per_op("isl.intern_atoms"),
        "affine.lower_share": share("affine.lower", "affine.lower_incremental"),
        "affine.lower_calls": calls("affine.lower", "affine.lower_incremental"),
        "affine.passes_share": share("affine.verify", "affine.canonicalize"),
        "affine.sim_compile_share": share("affine.sim_compile"),
        "affine.sim_run_share": share("affine.sim_run"),
        "hls.estimate_share": share("hls.estimate"),
        "hls.estimate_calls": calls("hls.estimate"),
        "hlsgen.codegen_share": share("hlsgen.codegen"),
        "hlsgen.c_bytes": per_op("hlsgen.c_bytes"),
        "dse.stage1_share": share("dse.stage1"),
        "dse.node_config_share": share("dse.node_config"),
        "dse.search_self_share": share("dse.auto_dse"),
        "dse.evaluations": per_op("dse.evaluations"),
        "dse.lowerings": per_op("dse.lowerings"),
        "dse.estimations": per_op("dse.estimations"),
        "dse.cache_hit_ratio": _ratio(counts.get("dse.cache_hits", 0), counts.get("dse.cache_lookups", 0)),
        "dse.pareto_evaluated": per_op("dse.pareto_evaluated"),
        "dse.surrogate_skips": per_op("dse.surrogate_skips"),
        "dse.frontier_size": per_op("dse.frontier_size"),
        "dataflow.balance_self_share": share("dataflow.auto_dse"),
        "dataflow.compose_share": share("dataflow.compose", "dataflow.estimate"),
        "dataflow.stage_sweeps": per_op("dataflow.stage_sweeps"),
        "fuzz.generate_share": share("fuzz.generate"),
        "fuzz.reference_share": share("fuzz.reference"),
        "fuzz.pass_ratio": _ratio(counts.get("fuzz.passed", 0), counts.get("fuzz.trials", 0)),
        "unattributed_share": _ratio(spanned_s - root_span_s, spanned_s),
        "trace.span_overhead_ratio": _ratio(math.fsum(spanned_norm), math.fsum(untraced_s)),
        "trace.profile_overhead_ratio": (
            _ratio(math.fsum(profiled.normalized()), math.fsum(untraced_s)) if profiled else 0.0
        ),
    }
    values.update(_serve_layer(untraced, untraced_s))
    profile_s = sum(row["self_s"] for row in packages.values())
    for name in PACKAGES:
        row = packages.get(name, {"self_s": 0.0, "calls": 0.0})
        values[f"pkg.{name}.self_share"] = _ratio(row["self_s"], profile_s)
        values[f"pkg.{name}.pycalls"] = row["calls"] / 1e3 / ops
    return values


def _serve_layer(untraced: Pass, seconds: Sequence[float]) -> Dict[str, float]:
    """Cold and hit round trips, and the part of a cold one that is not
    the engine: spawn, import, IPC, store write, HTTP."""
    cold, hit, engine, overhead = [], [], [], []
    for outcome, wall, raw in zip(untraced.outcomes, seconds, untraced.raw()):
        if outcome.counts.get("serve.cached"):
            hit.append(wall)
        elif "serve.engine_s" in outcome.counts:
            # The worker timed its sweep on its own raw clock: scale it
            # like the round trip that contains it before subtracting.
            engine_s = outcome.counts["serve.engine_s"] * wall / raw
            cold.append(wall)
            engine.append(engine_s)
            overhead.append(wall - engine_s)
    counts = untraced.total_counts()
    return {
        "serve.cold_s_p50": median(cold) if cold else 0.0,
        "serve.hit_s_p50": median(hit) if hit else 0.0,
        "serve.engine_s_p50": median(engine) if engine else 0.0,
        "serve.overhead_s_p50": median(overhead) if overhead else 0.0,
        "serve.overhead_share": _ratio(math.fsum(overhead), math.fsum(cold)),
        "serve.store_hit_ratio": _ratio(counts.get("serve.cached", 0), counts.get("serve.requests", 0)),
    }
