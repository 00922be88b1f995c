"""Function census: the ``src/`` functions that no entry point reaches.

Runs every entry point of the program under a call hook and prints the
functions under ``src/repro`` that none of them called.  The entry
points are:

* every CLI subcommand, with the flags that choose a different path
  (``--checkpoint``/``--resume``, ``--pareto``, ``weighted:``
  objectives, ``--no-cache``, ``--all``, ``--device``,
  ``--time-budget``, ``--load-schedule``/``--save-schedule``,
  ``--cosim``, ...) and the input errors the CLI turns into one line;
* ``repro.evaluation.report_all --quick`` (two workers, traced);
* the benchmark's op lists of all six workloads with their checks
  (``bench/worker.py --smoke``), every input ``bench/oplist.py`` can
  draw, and two of the workloads again in the isl and simulator
  reference modes;
* a ``repro serve`` daemon running dse, dataflow dse, verify, trace and
  fuzz jobs, with and without a ``fault`` payload, and ``repro fuzz
  --server`` against it;
* the ``examples/*.py`` scripts and the Python blocks of
  ``docs/tutorial.md``.

Each entry point runs in a forked child, so it starts from the state a
fresh process would.  The hook is ``sys.settrace`` with a global
function that returns None: it fires once per call and never per line.
Every process appends each code object it sees first to a file of its
own, so serve workers, which leave through ``os._exit``, report too.

A function that ``bench/`` names (an import, a rebinding in
``bench/spans.py``, an attribute it reads) counts as reached: the
benchmark is frozen outside its own changes.  Tests are not entry
points.  Only the outermost unreached function of a nest is listed;
its lines include the nested ones.

Run by hand from the repo root (it takes no flags; ~5 minutes)::

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import inspect
import json
import os
import re
import runpy
import signal
import sys
import tempfile
import threading
import time
import tokenize
import traceback
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
BENCH = os.path.join(ROOT, "bench")

Key = Tuple[str, int, str]  # (path under src/repro, first line, qualified name)


# -- the hook ---------------------------------------------------------------


class _Recorder:
    """Appends ``path:line:qualname`` of each newly seen ``src/`` code
    object to ``<directory>/<pid>.txt``, one flushed line at a time."""

    def __init__(self, directory: str):
        self.directory = directory
        self.seen: Set[object] = set()
        self.pid = None
        self.out = None

    def hook(self, frame, event, arg):
        code = frame.f_code
        if code in self.seen:
            return None
        self.seen.add(code)
        if not code.co_filename.startswith(SRC):
            return None
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.out = open(os.path.join(self.directory, f"{self.pid}.txt"), "a")
        self.out.write(
            f"{code.co_filename[len(SRC):]}:{code.co_firstlineno}:{code.co_qualname}\n"
        )
        self.out.flush()
        return None

    def install(self) -> None:
        threading.settrace(self.hook)
        sys.settrace(self.hook)

    def reached(self) -> Set[Key]:
        keys: Set[Key] = set()
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name)) as handle:
                for line in handle:
                    path, first, qualname = line.rstrip("\n").split(":", 2)
                    keys.add((path, int(first), qualname))
        return keys


# -- running entry points in children -----------------------------------------


def _in_child(label: str, run, timeout_s: float = 600.0) -> None:
    """Run ``run()`` in a forked child with stdout/stderr discarded."""
    started = time.monotonic()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            with open(os.devnull, "w") as sink:
                os.dup2(sink.fileno(), 1)
                os.dup2(sink.fileno(), 2)
            run()
        except SystemExit:
            pass
        except BaseException:
            code = 1
            with open(os.path.join(WORK, "errors.txt"), "a") as log:
                log.write(f"== {label}\n{traceback.format_exc()}\n")
        finally:
            os._exit(code)
    deadline = started + timeout_s
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            status = -1
            break
        time.sleep(0.05)
    mark = "" if status == 0 else "  (exited abnormally; see errors above)"
    print(f"  {label}: {time.monotonic() - started:.1f}s{mark}", flush=True)


def _cli(*argv: str):
    def run():
        from repro.cli import main

        main(list(argv))

    return run


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text)
    return path


def cli_commands() -> Iterator[Tuple[str, object]]:
    """Every subcommand, its path-choosing flags and its input errors."""
    tmp = WORK
    schedule = os.path.join(tmp, "gemm.json")
    bad_json = _write(os.path.join(tmp, "bad.json"), "{not json")
    no_directives = _write(os.path.join(tmp, "nodirs.json"), "{}")
    illegal = _write(os.path.join(tmp, "illegal.json"), json.dumps({"directives": [
        {"kind": "Interchange", "compute_name": "S", "i": "t", "j": "j"}]}))
    journal = os.path.join(tmp, "gemm.journal")
    all_dir = os.path.join(tmp, "all")
    trace = os.path.join(tmp, "trace.json")
    commands = [
        ("list",),
        ("compile", "gemm", "--size", "16"),
        ("compile", "gemm", "--size", "16", "--emit", "all", "--dse", "--save-schedule", schedule),
        ("compile", "gemm", "--size", "16", "--load-schedule", schedule, "--emit", "mlir"),
        ("compile", "gemm", "--size", "16", "--emit", "report", "--device", "xczu9eg"),
        ("compile", "gemm", "--size", "8", "--emit", "testbench", "--cosim"),
        ("compile", "image-pipeline", "--size", "16", "--emit", "all"),
        ("compile", "image-pipeline", "--size", "16", "--emit", "all", "--dse"),
        ("compile", "image-pipeline", "--size", "16", "--cosim"),
        ("compile", "gemm", "--load-schedule", os.path.join(tmp, "missing.json")),
        ("compile", "gemm", "--load-schedule", bad_json),
        ("compile", "gemm", "--load-schedule", no_directives),
        ("compile", "gemm", "--save-schedule", os.path.join(tmp, "no", "dir", "s.json")),
        ("compile", "nosuch"),
        ("compile", "gemm", "--size", "0"),
        ("compile", "gemm", "--device", "nosuch"),
        ("compile", "gemm", "--dse", "--resource-fraction", "2"),
        ("dse", "gemm", "--size", "32", "--stats", "--trace", trace),
        ("dse", "gemm", "--size", "32", "--no-cache", "--resource-fraction", "0.25"),
        ("dse", "gemm", "--size", "32", "--pareto"),
        ("dse", "bicg", "--size", "32", "--objective", "weighted:latency=1,dsp=0.5"),
        ("dse", "gemm", "--size", "32", "--objective", "pareto:latency,lut,bram,ff"),
        ("dse", "gemm", "--size", "32", "--objective", "bogus"),
        ("dse", "gemm", "--size", "32", "--pareto", "--objective", "pareto"),
        ("dse", "gemm", "--size", "32", "--device", "xc7z020@50%@200mhz"),
        ("dse", "gemm", "--size", "32", "--checkpoint", journal),
        ("dse", "gemm", "--size", "32", "--resume", journal),
        ("dse", "gemm", "--size", "32", "--resume", bad_json),
        ("dse", "gemm", "--size", "32", "--checkpoint", os.path.join(tmp, "no", "j")),
        ("dse", "seidel", "--size", "64", "--time-budget", "0.0001"),
        ("dse", "seidel", "--size", "64", "--time-budget", "0.0001", "--allow-degraded"),
        ("dse", "gemm", "--size", "32", "--candidate-timeout", "0.0000001"),
        ("dse", "image-pipeline", "--size", "16", "--stats"),
        ("dse", "image-pipeline", "--size", "16", "--pareto"),
        ("dse", "--all", "--size", "16", "--stats", "--checkpoint", all_dir),
        ("dse", "--all", "--size", "16", "--resume", all_dir, "--trace", trace),
        ("dse", "--all", "--size", "16", "--trace", os.path.join(tmp, "no", "t.json")),
        ("dse",),
        ("verify", "gemm", "--size", "16"),
        ("verify", "gemm", "--size", "16", "--stats", "--trace", trace),
        ("verify", "seidel", "--load-schedule", illegal),
        ("verify", "gemm", "--load-schedule", bad_json),
        ("verify", "image-pipeline", "--load-schedule", schedule),
        ("trace", "gemm", "--size", "32"),
        ("trace", "gemm", "--size", "32", "--dse", "--device", "xczu9eg", "--trace", trace),
        ("fuzz",),
        ("fuzz", "--trials", "6", "--sizes", "8", "--stats", "--trace", trace,
         "--out", os.path.join(tmp, "fuzz")),
        ("fuzz", "--trials", "4", "--workloads", "gemm,seidel", "--max-directives", "3",
         "--time-budget", "30"),
        ("fuzz", "--sizes", "a"),
        ("fuzz", "--workloads", "nosuch"),
        ("fuzz", "--out", os.path.join(bad_json, "sub")),
        ("experiment", "table4"),
        ("experiment", "table6", "--size", "64"),
        ("experiment", "fig15", "--size", "16"),
        ("experiment", "nosuch"),
        ("experiment", "table3", "--size", "0"),
    ]
    for argv in commands:
        yield "repro " + " ".join(argv), _cli(*argv)


def serve_daemon() -> None:
    """``repro serve`` in a child; jobs of every kind from this process."""
    state = os.path.join(WORK, "serve")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        os.dup2(write_end, 1)
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), 2)
        code = 0
        try:
            from repro.cli import main

            main(["serve", "--port", "0", "--workers", "2", "--state-dir", state,
                  "--drain-grace", "2"])
        except BaseException:
            code = 1
        os._exit(code)
    os.close(write_end)
    banner = os.fdopen(read_end).readline()
    url = re.search(r"http://\S+", banner).group(0)
    from repro.serve import ServeClient

    requests = [
        {"kind": "dse", "workload": "gemm", "size": 32},
        {"kind": "dse", "workload": "gemm", "size": 32},  # a store hit
        {"kind": "dse", "workload": "bicg", "size": 32,
         "options": {"objective": "pareto", "device": "xczu9eg", "cache": False}},
        {"kind": "dse", "workload": "image-pipeline", "size": 16},
        {"kind": "dse", "workload": "gemm", "size": 64,
         "fault": {"seed": 3, "candidates": 8, "rate": 0.5}},
        {"kind": "dse", "workload": "bicg", "size": 64,
         "fault": {"faults": [{"kind": "crash", "candidate": 1}]}},
        {"kind": "dse", "workload": "gesummv", "size": 64,
         "options": {"candidate_timeout_s": 30.0},
         "fault": {"faults": [{"kind": "hang", "candidate": 2},
                              {"kind": "permanent", "candidate": 4},
                              {"kind": "corrupt", "candidate": 5},
                              {"kind": "transient", "candidate": 3, "count": 2}]}},
        {"kind": "verify", "workload": "seidel", "size": 16},
        {"kind": "trace", "workload": "gemm", "size": 16},
        {"kind": "trace", "workload": "gemm", "size": 16, "options": {"dse": True}},
        {"kind": "fuzz", "options": {"seed": 1, "trials": 4, "sizes": [8]}},
        {"kind": "fuzz", "workload": "jacobi-1d", "size": 8, "options": {"trials": 3}},
        {"kind": "dse", "workload": "nosuch"},
        {"kind": "dse", "workload": "gemm", "options": {"bogus": 1}},
    ]
    with ServeClient(url, timeout_s=120.0) as client:
        client.wait_until_up()
        session = client.open_session()
        for body in requests:
            try:
                record = client.run(session=session, **body)
                if "job" in record:
                    client.events(record["job"])
            except Exception:
                pass
        client.status()
        client.close_session(session)
    _in_child("repro fuzz --server", _cli(
        "fuzz", "--server", url, "--trials", "3", "--sizes", "8", "--workloads", "gemm"))
    os.kill(pid, signal.SIGTERM)
    os.waitpid(pid, 0)


def bench_workload(workload: str):
    """One smoke pass of ``workload`` with its checks, as the harness runs it."""

    def run():
        sys.path.insert(0, BENCH)
        import worker

        worker.main(["--workload", workload, "--seed", "20240302", "--seconds", "10",
                     "--mode", "time", "--smoke", "--spawned-at", repr(time.time())])

    return run


def bench_inputs():
    """Every input any benchmark seed can draw, through ``bench/ops.py``."""
    sys.path.insert(0, BENCH)
    from oplist import all_inputs
    from ops import Session

    by_workload = {"fuzz": "fuzz_verify"}
    for op in all_inputs():
        with Session(by_workload.get(op.kind, "kernel_dse")) as session:
            session.describe(op, session.execute(op))


def example(path: str):
    def run():
        sys.argv = [path]
        runpy.run_path(path, run_name="__main__")

    return run


def tutorial():
    with open(os.path.join(ROOT, "docs", "tutorial.md")) as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    namespace: Dict[str, object] = {"__name__": "__main__"}
    for block in blocks:
        exec(compile(block, "docs/tutorial.md", "exec"), namespace)


def report_all_quick():
    from repro.evaluation.report_all import main

    main(["--quick", "--jobs", "2", "--trace", os.path.join(WORK, "report.json"),
          "--output", os.path.join(WORK, "report.md")])


def reference_modes():
    """Two smoke workloads under ``REPRO_ISL_REFERENCE``/``REPRO_SIM_REFERENCE``."""
    from repro.affine import compile as sim
    from repro.isl import intern

    intern.set_reference_mode(True)
    sim.set_reference_mode(True)
    bench_workload("kernel_dse")()
    bench_workload("fuzz_verify")()


# -- what exists, and what bench/ names -----------------------------------------


def defined_functions() -> Dict[Key, int]:
    """Every function under ``src/repro`` -> its line count."""
    functions: Dict[Key, int] = {}
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                module = compile(handle.read(), path, "exec")
            stack = [module]
            while stack:
                code = stack.pop()
                for const in code.co_consts:
                    if inspect.iscode(const):
                        stack.append(const)
                if code.co_name.startswith("<") or not code.co_flags & inspect.CO_NEWLOCALS:
                    continue  # modules, class bodies, lambdas, comprehensions
                lines = [line for _, _, line in code.co_lines() if line is not None]
                last = max(lines + [code.co_firstlineno])
                functions[(path[len(SRC):], code.co_firstlineno, code.co_qualname)] = (
                    last - code.co_firstlineno + 1
                )
    return functions


def bench_names() -> Set[str]:
    """Identifiers ``bench/`` imports, rebinds or reads."""
    names: Set[str] = set()
    for name in os.listdir(BENCH):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH, name), "rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME:
                    names.add(token.string)
                elif token.type == tokenize.STRING:
                    names.update(re.findall(r"[A-Za-z_]\w*", token.string))
    return names


def _outermost(keys: List[Key]) -> List[Key]:
    """Drop a function whose enclosing function is itself listed."""
    listed = {(path, qualname) for path, _, qualname in keys}
    kept = []
    for path, first, qualname in keys:
        parts = qualname.split(".<locals>.")
        enclosing = {".<locals>.".join(parts[:i]) for i in range(1, len(parts))}
        if not any((path, outer) in listed for outer in enclosing):
            kept.append((path, first, qualname))
    return kept


# -- main ---------------------------------------------------------------------

WORK = ""


def main() -> int:
    global WORK
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Forked children share this process's hash seed: fix it, so two
        # censuses of one tree run the same schedules.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(prefix="census-") as WORK:
        hits = os.path.join(WORK, "hits")
        os.makedirs(hits)
        recorder = _Recorder(hits)
        recorder.install()
        import repro  # noqa: F401  (module bodies are not functions)

        print("entry points:", flush=True)
        for label, run in cli_commands():
            _in_child(label, run)
        _in_child("report_all --quick --jobs 2 --trace", report_all_quick)
        for workload in ("kernel_dse", "kernel_dse_nocache", "dnn_dse", "frontier_dse",
                         "serve_mix", "fuzz_verify"):
            _in_child(f"bench {workload} --smoke", bench_workload(workload))
        _in_child("bench oplist.all_inputs()", bench_inputs)
        _in_child("bench kernel_dse, fuzz_verify --smoke, reference modes", reference_modes)
        _in_child("repro serve + jobs", serve_daemon)
        for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
            if name.endswith(".py"):
                path = os.path.join(ROOT, "examples", name)
                _in_child(f"examples/{name}", example(path))
        _in_child("docs/tutorial.md", tutorial)
        sys.settrace(None)
        threading.settrace(None)

        errors = os.path.join(WORK, "errors.txt")
        if os.path.exists(errors):
            with open(errors) as handle:
                print(handle.read())
        reached = recorder.reached()

    functions = defined_functions()
    named = bench_names()
    unreached = sorted(key for key in functions if key not in reached)
    by_bench = [key for key in unreached if key[2].rsplit(".", 1)[-1] in named]
    listed = _outermost([key for key in unreached if key not in set(by_bench)])
    print()
    print("not run, but named by bench/ (counted as reached):")
    for path, first, qualname in by_bench:
        print(f"  {path}:{first} {qualname}")
    print()
    print("unreached functions (path:line qualname, lines):")
    for path, first, qualname in listed:
        print(f"  {path}:{first} {qualname} ({functions[(path, first, qualname)]})")
    print()
    print(f"functions: {len(functions)} defined, {len(functions) - len(unreached)} reached, "
          f"{len(by_bench)} named by bench/ only")
    print(f"unreached: {len(listed)} functions, "
          f"{sum(functions[key] for key in listed)} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
