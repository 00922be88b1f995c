"""``python3 bench/compare.py BASE.json NEW.json``: did anything move?

One row per workload x end-to-end metric: base, new, new/base, the
bound from BENCHMARK.json and a verdict.  Both files come from
``run.py --json`` and hold one or more *sets* (``--sets N``); a file's
own set-to-set spread is what tells a real change from noise:

* ``regressed``  -- worse than base by more than the bound;
* ``improved``   -- better than base by more than the bound;
* ``unchanged``  -- within the bound either way;
* ``unresolved`` -- either file's own spread exceeds the bound, unless
  every new set reads better than every base set (then ``improved``).

Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from typing import Dict, List

from paths import BENCHMARK_PATH


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _values(doc: dict, workload: str, metric: str) -> List[float]:
    return [
        one_set[workload]["metrics"][metric]
        for one_set in doc["sets"]
        if workload in one_set and metric in one_set[workload].get("metrics", {})
    ]


def _spread(values: List[float]) -> float:
    """Range over median of a file's own sets (0 for a single set)."""
    middle = median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_mid, new_mid = median(base), median(new)
    worse_by = sign * (new_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    if max(_spread(base), _spread(new)) > bound:
        every_new_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "improved" if every_new_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict, benchmark: dict) -> List[Dict[str, object]]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            base_values = _values(base, workload, metric["name"])
            new_values = _values(new, workload, metric["name"])
            if not base_values or not new_values:
                continue
            base_mid, new_mid = median(base_values), median(new_values)
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "base": base_mid,
                "new": new_mid,
                "ratio": new_mid / base_mid if base_mid else float("nan"),
                "bound": metric["bound"],
                "verdict": verdict(base_values, new_values, metric["better"], metric["bound"]),
            })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<20}{'metric':<20}{'base':>13}{'new':>13}  {'new/base':>9}  {'bound':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<20}{row['metric']:<20}{row['base']:>13.6g}{row['new']:>13.6g}"
            f"  {row['ratio']:>8.4f}x  {row['bound']:>7.2%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows = compare(docs[0], docs[1], load_benchmark())
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
