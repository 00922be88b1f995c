"""Workloads and their op lists, generated from ``--seed``.

An *op* is one design request.  A workload's ops are a fixed list drawn
from the seed -- not a time box -- so that counts repeat exactly and two
runs of one seed measure the same work.  The seed changes sizes,
resource fractions, the serve novel/repeat sequence and the fuzz trial
seeds, and nothing else; the program under test only ever receives the
generated inputs.

Draws are stratified, not independent.  With only tens of ops in a run,
independent draws of ``size`` and ``resource_fraction`` would move every
aggregate by more than any useful regression bound (a DNN sweep's length
alone varies by 25% with the drawn budget).  Instead each input gets a
seed-drawn Latin square: every *pass* pairs each of its sizes with one
fraction, three passes cover all nine pairings, and the seed decides
which pairings land in the passes a run has time for and in which order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: BENCHMARK.json says why each exists; bench/README.md says more.
WORKLOADS = (
    "kernel_dse", "kernel_dse_nocache", "dnn_dse", "frontier_dse", "serve_mix", "fuzz_verify",
)

#: ``workloads.names(kind="function")`` minus the two DNNs, pinned so
#: that registering a new workload does not silently change the ruler.
KERNELS = (
    "2mm", "3mm", "atax", "bicg", "blur", "conv2d", "doitgen", "edgedetect",
    "gaussian", "gemm", "gesummv", "heat-1d", "jacobi-1d", "jacobi-2d", "mvt",
    "seidel", "syrk", "trisolv",
)
PARETO_KERNELS = ("gemm", "bicg", "gesummv", "2mm", "3mm", "jacobi-2d", "edgedetect")
DATAFLOW_DESIGNS = ("image-pipeline", "conv-block")
DNNS = ("vgg16", "resnet18")
#: ``repro.fuzz.runner.DEFAULT_WORKLOADS`` minus seidel and conv2d: their
#: trials cost 0.3-0.8 s each against 0.02 s for the rest, so with them
#: in, the workload would measure little but their simulation.
FUZZ_TARGETS = (
    "gemm", "bicg", "gesummv", "atax", "mvt", "jacobi-1d", "jacobi-2d",
    "edgedetect", "blur", "image-pipeline", "conv-block",
)

SIZES = (256, 512, 1024)
FRACTIONS = (0.25, 0.5, 1.0)
DATAFLOW_SIZES = (32, 64, 128)
DNN_SIZES = (4, 6, 8)
#: Only two DNN ops fit a run, and at larger budgets a DNN sweep's
#: length swings 25% with the drawn size; at this one it stays within 3%.
DNN_FRACTION = 0.25
FUZZ_SIZES = (12, 16, 24)
#: The fuzz corpus is closed: trial seeds 0..8 for every target and
#: size, all of which pass at the defining commit in under 0.2 s.  The
#: run seed draws which of them each pass uses.  Open-ended trial seeds
#: do what fuzzing is for -- they find failures (gemm@12 with trial seed
#: 404377371 asks random_schedule for a 28 GiB array) and minute-long
#: trials -- which is exactly what a ruler's inputs must not do.
FUZZ_CORPUS = 9
#: One serve request in five is novel (worker spawn + sweep + store
#: write); the rest repeat an earlier one (store hit).
SERVE_NOVEL_EVERY = 5

#: ``--smoke`` keeps the inputs and thins the list: every ninth op of
#: one pass, this many serve requests and fuzz trials.  (Smaller sizes
#: would buy nothing: a sweep's length barely depends on the size.)
SMOKE_STRIDE = 9
SMOKE_SERVE_REQUESTS = 20
SMOKE_FUZZ_TRIALS = 10

#: Passes per run when ``--seconds`` equals BENCHMARK.json's
#: ``run_seconds``; other values scale it.  Sized so that each timed
#: window is about that long on the defining machine.
RUN_SECONDS = 10
PASSES = {
    "kernel_dse": 2,          # 108 ops
    "kernel_dse_nocache": 1,  # 54 ops
    "dnn_dse": 2,             # 4 ops, ~18 s: two ops are too few to be steady
    "frontier_dse": 3,        # 81 ops: all nine pairings of every input
    "serve_mix": 2,           # 180 requests, 36 novel
    "fuzz_verify": 7,         # 231 trials
}
#: Ops of the first pass that the ``--trace`` passes run (untraced, span
#: and profile pass over the same ops): about 2.5 s untraced each.
TRACE_OPS = {
    "kernel_dse": 36,
    "kernel_dse_nocache": 18,
    "dnn_dse": 1,
    "frontier_dse": 27,
    "serve_mix": 90,
    "fuzz_verify": 33,
}


@dataclass(frozen=True)
class Op:
    """One design request: which entry point, on which generated input."""

    kind: str  # dse | dse_nocache | dnn | pareto | dataflow | serve | fuzz
    name: str
    size: int
    fraction: float = 1.0
    #: fuzz trial seed, or for serve ops 1 when the request is novel.
    arg: int = 0

    @property
    def input_key(self) -> str:
        """Identifies the generated input (ops on one input share QoR)."""
        if self.kind == "fuzz":
            return f"{self.name}@{self.size}"
        return f"{self.name}@{self.size}@{self.fraction:g}"


def passes_for(workload: str, seconds: float) -> int:
    """How many passes a ``--seconds`` run makes (at least one)."""
    return max(1, round(PASSES[workload] * seconds / RUN_SECONDS))


def latin_passes(
    rng: random.Random,
    inputs: Sequence[str],
    sizes: Sequence[int],
    fractions: Sequence[float],
) -> List[List[Tuple[str, int, float]]]:
    """``len(sizes)`` passes of ``(input, size, fraction)``.

    Within a pass every input appears once per size, each with a
    different fraction; across the passes every size meets every
    fraction exactly once per input.  The seed draws the square.
    """
    count = len(sizes)
    passes: List[List[Tuple[str, int, float]]] = [[] for _ in range(count)]
    for name in inputs:
        drawn = rng.sample(list(fractions), count)
        for index, one_pass in enumerate(passes):
            for column, size in enumerate(sizes):
                one_pass.append((name, size, drawn[(column + index) % count]))
    return passes


def _shuffled_passes(passes: List[list], count: int, rng: random.Random) -> List[list]:
    """``count`` shuffled passes, repeating the square when it runs out."""
    chosen = []
    for index in range(count):
        one_pass = list(passes[index % len(passes)])
        rng.shuffle(one_pass)
        chosen.append(one_pass)
    return chosen


def generate(workload: str, seed: int, passes: int, smoke: bool = False) -> List[Op]:
    """The op list of one run: a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # The uncached workload replays kernel_dse's list: its designs must
    # equal kernel_dse's input for input.
    stream = "kernel_dse" if workload == "kernel_dse_nocache" else workload
    # A str seed is hashed with sha512, not hash(): stable across processes.
    rng = random.Random(f"{stream}:{seed}")
    ops: List[Op] = []

    if stream == "kernel_dse":
        kind = "dse" if workload == "kernel_dse" else "dse_nocache"
        square = latin_passes(rng, KERNELS, SIZES, FRACTIONS)
        for one_pass in _shuffled_passes(square, passes, rng):
            ops += [Op(kind, *item) for item in one_pass]

    elif workload == "dnn_dse":
        for _ in range(passes):
            one_pass = [Op("dnn", name, rng.choice(DNN_SIZES), DNN_FRACTION) for name in DNNS]
            rng.shuffle(one_pass)
            ops += one_pass

    elif workload == "frontier_dse":
        pareto = latin_passes(rng, PARETO_KERNELS, SIZES, FRACTIONS)
        dataflow = latin_passes(rng, DATAFLOW_DESIGNS, DATAFLOW_SIZES, FRACTIONS)
        square = [
            [("pareto",) + item for item in left] + [("dataflow",) + item for item in right]
            for left, right in zip(pareto, dataflow)
        ]
        for one_pass in _shuffled_passes(square, passes, rng):
            ops += [Op(*item) for item in one_pass]

    elif workload == "serve_mix":
        square = latin_passes(rng, KERNELS, SIZES, FRACTIONS)
        seen: List[Tuple[str, int, float]] = []
        for index in range(passes):
            # One novel request per kernel and pass, at one of the three
            # pairings the square gives it; once the square is used up
            # nothing is novel any more.
            novel = [
                square[index][3 * k + rng.randrange(3)] for k in range(len(KERNELS))
            ] if index < len(square) else []
            rng.shuffle(novel)
            for item in novel:
                seen.append(item)
                ops.append(Op("serve", *item, arg=1))
                ops += [
                    Op("serve", *rng.choice(seen)) for _ in range(SERVE_NOVEL_EVERY - 1)
                ]

    elif workload == "fuzz_verify":
        drawn = {
            (name, size): rng.sample(range(FUZZ_CORPUS), FUZZ_CORPUS)
            for name in FUZZ_TARGETS
            for size in FUZZ_SIZES
        }
        for index in range(passes):
            one_pass = [
                Op("fuzz", name, size, arg=trial_seeds[index % FUZZ_CORPUS])
                for (name, size), trial_seeds in drawn.items()
            ]
            rng.shuffle(one_pass)
            ops += one_pass

    if smoke:
        if workload == "serve_mix":
            return ops[:SMOKE_SERVE_REQUESTS]
        if workload == "fuzz_verify":
            return ops[:SMOKE_FUZZ_TRIALS]
        return ops[::SMOKE_STRIDE]
    return ops


def trace_ops(workload: str, seed: int, smoke: bool = False) -> List[Op]:
    """The ops the ``--trace`` passes run: the head of the first pass."""
    ops = generate(workload, seed, 1, smoke=smoke)
    return ops if smoke else ops[:TRACE_OPS[workload]]


def all_inputs() -> List[Op]:
    """One op per input any seed can draw (what the QoR baseline covers)."""
    ops = [Op("dse", name, size, fraction)
           for name in KERNELS for size in SIZES for fraction in FRACTIONS]
    ops += [Op("dnn", name, size, DNN_FRACTION) for name in DNNS for size in DNN_SIZES]
    ops += [Op("pareto", name, size, fraction)
            for name in PARETO_KERNELS for size in SIZES for fraction in FRACTIONS]
    ops += [Op("dataflow", name, size, fraction)
            for name in DATAFLOW_DESIGNS for size in DATAFLOW_SIZES for fraction in FRACTIONS]
    ops += [Op("fuzz", name, size) for name in FUZZ_TARGETS for size in FUZZ_SIZES]
    return ops
