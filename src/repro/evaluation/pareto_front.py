"""Latency/resource Pareto frontiers from multi-objective DSE.

Not a table from the paper: the source work returns a single best
design per workload.  This experiment runs ``auto_dse`` in ``pareto``
mode (latency vs. DSP) over representative workloads and renders each
discovered frontier, alongside how many enrichment candidates reached
the estimator and how many the design memo answered -- the
ScaleHLS-style view of the same design space (see docs/pareto.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.dse import DseOptions, DseResult, auto_dse
from repro.evaluation.frameworks import format_table
from repro.workloads import polybench

WORKLOADS = ("gemm", "mm2")
DEFAULT_SIZE = 4096
OBJECTIVE = "pareto:latency,dsp"


def run(
    size: int = DEFAULT_SIZE, workloads: Sequence[str] = WORKLOADS
) -> Dict[str, DseResult]:
    results: Dict[str, DseResult] = {}
    for name in workloads:
        function = getattr(polybench, name)(size)
        results[name] = auto_dse(
            function, options=DseOptions(objective=OBJECTIVE)
        )
    return results


def render(results: Dict[str, DseResult]) -> str:
    headers = [
        "Workload", "Design", "Cycles", "DSP", "LUT", "FF", "BRAM(b)",
        "Bank cap",
    ]
    rows: List[List[str]] = []
    for name, result in results.items():
        for index, point in enumerate(result.frontier or (), start=1):
            rows.append([
                name,
                f"#{index}",
                str(point.cycles),
                str(point.dsp),
                str(point.lut),
                str(point.ff),
                str(point.bram_bits),
                str(point.bank_cap),
            ])
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


def main(size: int = DEFAULT_SIZE) -> str:
    text = render(run(size))
    print(text)
    return text


if __name__ == "__main__":
    main()
