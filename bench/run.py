"""The benchmark: ``python3 bench/run.py`` from the repository root.

Two forms, one measurement path:

* ``--workload W --seed N --seconds S --trace 0|1`` -- one workload, the
  form BENCHMARK.json's ``command`` is driven with.  The last line of
  stdout is ``{"correct", "attempted", "failed", "metrics"}`` holding
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``).
* no ``--workload`` -- every workload in turn (``--trace`` adds the
  traced run of each), every metric printed by name with its unit, the
  result appended to ``bench/results/history.jsonl`` and, with
  ``--json OUT``, written for ``compare.py``.  ``--sets 2`` does it all
  twice and compares the two sets with each other.

Each workload runs in fresh child interpreters started with
``PYTHONHASHSEED=0`` (so call counts repeat exactly) and with ``src`` on
``PYTHONPATH``; nothing is imported from the program in this process.
Exit code 1 if a correctness check or an op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

import compare
import oplist
import stamp
from paths import BENCH_DIR, REPO_ROOT

WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A worker that takes this long is broken, not slow.
WORKER_TIMEOUT_S = 170
DEFAULT_SEED = 20240302
HELD_OUT_SEED = 77041


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, smoke: bool) -> dict:
    """Run one worker to completion and return the JSON it printed."""
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=worker_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode}/{workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload's result: the worker's report, ``setup_s`` a median."""
    if trace:
        return spawn(workload, seed, seconds, "trace", smoke)
    result = spawn(workload, seed, seconds, "time", smoke)
    setups = [result["setup_s"]] + [
        spawn(workload, seed, seconds, "setup", smoke)["setup_s"]
        for _ in range(0 if smoke else SETUP_SAMPLES - 1)
    ]
    result["metrics"]["setup_s"] = median(setups)
    result["setup_samples"] = len(setups)
    return result


def result_line(result: dict, declared: List[dict]) -> dict:
    """The contract's last line: the declared metrics, named and united."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def print_metrics(workload: str, result: dict, declared: List[dict]) -> None:
    print(f"{workload}: {result['ops']} ops, {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['checks']['run']} checks "
          f"({result['checks']['skipped']} skipped), speed_index {result['speed_index']:.3f}, "
          f"raw op_s_p50 {result['raw_op_s_p50']:.6g} s")
    for metric in declared:
        print(f"  {metric['name']:<32}{result['metrics'][metric['name']]:>16.6g} {metric['unit']}")
    for line in result["failures"] + [f"qor drift {d}" for d in result["qor_drift"]]:
        print(f"  ! {line}")


def run_set(benchmark: dict, args) -> Dict[str, dict]:
    one_set: Dict[str, dict] = {}
    for workload in oplist.WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, False, args.smoke)
        print_metrics(workload, result, benchmark["end_to_end"])
        if args.trace:
            traced = run_workload(workload, args.seed, args.seconds, True, args.smoke)
            print_metrics(f"{workload} (traced)", traced, benchmark["per_layer"])
            result["layers"] = traced["metrics"]
            result["failed"] += traced["failed"]
            result["attempted"] += traced["attempted"]
            result["failures"] += traced["failures"]
        one_set[workload] = result
    return one_set


def main(argv=None) -> int:
    benchmark = compare.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"op-list seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of a timed window; scales the pass counts")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="per-layer run: span pass and profile pass")
    parser.add_argument("--sets", type=int, default=1, help="repeat everything and self-compare")
    parser.add_argument("--json", metavar="OUT", help="write the result document here")
    parser.add_argument("--smoke", action="store_true", help="a thinned op list, under a minute")
    args = parser.parse_args(argv)
    if names != list(oplist.WORKLOADS):
        parser.error("BENCHMARK.json and bench/oplist.py disagree on the workloads")

    if args.workload:  # the driver's form
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        print_metrics(args.workload, result, declared)
        print(json.dumps(result_line(result, declared)))
        return 0 if result["failed"] == 0 else 1

    document = {
        "stamp": stamp.machine_stamp(args.seed, args.seconds, args.smoke),
        "sets": [run_set(benchmark, args) for _ in range(args.sets)],
    }
    for one_set in document["sets"]:
        stamp.append_ledger({
            "stamp": document["stamp"],
            "workloads": {
                name: {key: result[key] for key in (
                    "metrics", "layers", "attempted", "failed", "ops", "speed_index",
                    "raw_op_s_p50", "calibration_samples", "setup_samples",
                ) if key in result}
                for name, result in one_set.items()
            },
        })
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    failed = sum(result["failed"] for one_set in document["sets"] for result in one_set.values())
    disagree = False
    if args.sets > 1:
        rows = compare.compare(
            {"sets": document["sets"][:1]}, {"sets": document["sets"][1:]}, benchmark
        )
        print(compare.render(rows))
        disagree = any(row["verdict"] != "unchanged" for row in rows)
    return 1 if failed or disagree else 0


if __name__ == "__main__":
    sys.exit(main())
