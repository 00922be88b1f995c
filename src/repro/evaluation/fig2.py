"""Figure 2: the BICG motivating example.

Latency and speedup of BICG under the baseline, Pluto, POLSCA,
ScaleHLS, and POM -- the paper's Section II-D comparison, including the
achieved initiation intervals that drive the schedule illustrations in
Fig. 2(c)-(e).
"""

from __future__ import annotations

from typing import Dict

from repro.evaluation.frameworks import (
    Claim, Experiment, Reading, RunResult, achieved_ii, cycles, format_table, grid, ratio,
    speedup, table_rows,
)
from repro.workloads import polybench

FRAMEWORKS = ("baseline", "pluto", "polsca", "scalehls", "pom")
DEFAULT_SIZE = 4096


def run(size: int = DEFAULT_SIZE) -> Dict[str, RunResult]:
    return grid(((fw,), fw, polybench.bicg, size, {}) for fw in FRAMEWORKS)


def render(results: Dict[str, RunResult]) -> str:
    headers = ["Framework", "Latency (cycles)", "Speedup", "Achieved II"]
    rows = table_rows(results, (cycles, speedup, achieved_ii))
    return format_table(headers, rows, title=f"Fig. 2: BICG motivating example (size {next(iter(results.values())).size})")


CLAIMS = (
    Claim("Pluto = baseline", "Pluto's CPU schedule leaves FPGA latency untouched (Fig. 2c)",
          lambda r: [Reading("|Pluto speedup - 1|", abs(r["pluto"].speedup - 1), "<=", 0.1)]),
    Claim("POLSCA single digits", "POLSCA reaches only a single-digit speedup", lambda r: [
        Reading("POLSCA speedup", r["polsca"].speedup, ">", 1.0),
        Reading("POLSCA speedup", r["polsca"].speedup, "<", 10.0),
    ]),
    Claim("POLSCA large II", "POLSCA's BICG II = 161",
          lambda r: [Reading("POLSCA II", r["polsca"].achieved_ii, ">", 50)]),
    Claim("ScaleHLS limited by the shared nest",
          "ScaleHLS beats POLSCA but is limited by the unsplittable nest (II 43)", lambda r: [
              Reading("ScaleHLS/POLSCA speedup", ratio(r, "scalehls", "polsca"), ">", 1),
              Reading("ScaleHLS II", r["scalehls"].achieved_ii, ">", 10),
          ]),
    Claim("POM wins by a large factor", "POM 224x vs ScaleHLS 41.7x (~5.4x better)", lambda r: [
        Reading("POM/ScaleHLS speedup", ratio(r), ">", 3),
        Reading("POM speedup", r["pom"].speedup, ">", 100),
    ]),
    Claim("POM small II", "POM's split-interchange-merge reaches II = 2",
          lambda r: [Reading("POM II", r["pom"].achieved_ii, "<=", 4)]),
)

EXPERIMENT = Experiment(run, render, quick={"size": 512}, claims=CLAIMS)

if __name__ == "__main__":
    EXPERIMENT.main()
