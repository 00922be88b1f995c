"""Throughput-balanced dataflow DSE vs. a naive even split.

Runs the joint dataflow DSE (:func:`repro.dataflow.auto_dse_dataflow`)
over the multi-kernel FIFO pipeline workloads under a 25% resource
budget.  The balancing walk spends resources only on the bottleneck
stage, so under a tight budget it must beat splitting the same budget
evenly across stages; the >= 1.5x floor is far below the measured ~3x
but well above noise (the model is deterministic, so the slack only
absorbs future estimator recalibrations).
"""

import math

import pytest

from repro import workloads
from repro.dse import DseOptions

#: Hard floor for the balanced-over-naive interval speedup (geomean).
SPEEDUP_BAR = 1.5

WORKLOADS = ("image-pipeline", "conv-block")
RESOURCE_FRACTION = 0.25
SIZE = 32


@pytest.mark.dataflow
def test_balanced_beats_naive():
    rows = []
    for name in WORKLOADS:
        result = workloads.get(name, SIZE).auto_DSE(options=DseOptions(
            resource_fraction=RESOURCE_FRACTION,
        ))
        rows.append({
            "workload": name,
            "stages": len(result.design.stages),
            "interval_cycles": result.report.interval_cycles,
            "naive_interval_cycles": result.naive_report.interval_cycles,
            "balanced_speedup": round(result.balanced_speedup, 2),
        })
    geomean = math.prod(row["balanced_speedup"] for row in rows) ** (1.0 / len(rows))
    for row in rows:
        assert row["stages"] >= 3, row
        assert row["balanced_speedup"] >= 1.0, row
    assert geomean >= SPEEDUP_BAR, (
        f"balanced dataflow DSE geomean speedup {geomean:.2f}x over the "
        f"naive even split is below the {SPEEDUP_BAR}x bar: {rows}"
    )
