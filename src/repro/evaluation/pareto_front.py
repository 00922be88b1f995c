"""Latency/resource Pareto frontiers from multi-objective DSE.

Not a table from the paper: the source work returns a single best
design per workload.  This experiment runs ``auto_dse`` in ``pareto``
mode (latency vs. DSP) over representative workloads and renders each
discovered frontier, alongside how many enrichment candidates lowered
or estimated a nest and how many the per-nest memos answered -- the
ScaleHLS-style view of the same design space (see docs/pareto.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.dse import DseOptions, DseResult, auto_dse
from repro.evaluation.frameworks import Experiment, format_table
from repro.workloads import polybench

WORKLOADS = ("gemm", "mm2")
DEFAULT_SIZE = 4096
OBJECTIVE = "pareto:latency,dsp"


def run(
    size: int = DEFAULT_SIZE, workloads: Sequence[str] = WORKLOADS
) -> Dict[str, DseResult]:
    return {
        name: auto_dse(getattr(polybench, name)(size), options=DseOptions(objective=OBJECTIVE))
        for name in workloads
    }


def render(results: Dict[str, DseResult]) -> str:
    headers = [
        "Workload", "Design", "Cycles", "DSP", "LUT", "FF", "BRAM(b)",
        "Bank cap",
    ]
    rows: List[List[str]] = []
    for name, result in results.items():
        for index, point in enumerate(result.frontier or (), start=1):
            rows.append([name, f"#{index}", *map(str, (
                point.cycles, point.dsp, point.lut, point.ff,
                point.bram_bits, point.bank_cap,
            ))])
        stats = result.stats
        if stats is not None and stats.pareto_candidates:
            rows.append([
                name,
                "(cost)",
                f"{stats.pareto_evaluated} estimated",
                f"{stats.surrogate_skips} memo-answered",
                f"of {stats.pareto_candidates}",
                "", "", "",
            ])
    return format_table(
        headers, rows, title=f"Pareto frontiers ({OBJECTIVE})"
    )


EXPERIMENT = Experiment(run, render, quick={"size": 256})

if __name__ == "__main__":
    EXPERIMENT.main()
